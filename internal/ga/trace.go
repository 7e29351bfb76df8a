package ga

import (
	"fourindex/internal/metrics"
	"fourindex/internal/trace"
)

// This file is the runtime side of the execution-trace subsystem
// (internal/trace): sequential-code entry points that schedules use to
// open schedule-level spans and drop marks, plus the counter snapshot
// that feeds per-span resource deltas. Per-operation events (Get, Put,
// Acc, Barrier, Create, Destroy) are emitted at their call sites in
// tiled.go and ga.go.

// Tracing reports whether an enabled tracer is attached to the runtime.
// Schedules use it to guard trace-only work (such as formatting mark
// labels) so the disabled path stays allocation-free.
func (rt *Runtime) Tracing() bool { return rt.cfg.Tracer.Enabled() }

// traceTotals snapshots the aggregate counters in the trace package's
// units. Sequential-code only (it reads all process counters).
func (rt *Runtime) traceTotals() trace.Totals {
	var t trace.Totals
	for _, c := range rt.counters {
		t.Flops += c.Flops()
		t.CommElements += c.Traffic(metrics.LevelGlobal)
		t.IntraElements += c.Traffic(metrics.LevelIntra)
		t.DiskElements += c.Traffic(metrics.LevelDisk)
		t.Messages += c.Messages(metrics.LevelGlobal) +
			c.Messages(metrics.LevelIntra) +
			c.Messages(metrics.LevelDisk)
	}
	for i := range rt.commExposed {
		t.CommExposedSec += rt.commExposed[i]
		t.CommOverlapSec += rt.commOverlapped[i]
	}
	return t
}

// TraceSpan opens a named span on the attached tracer (no-op when
// disabled). Must be called from sequential (between-region) code, like
// BeginPhase; schedules use it for their root span while BeginPhase
// emits the nested per-phase spans automatically.
func (rt *Runtime) TraceSpan(name string) {
	if !rt.Tracing() {
		return
	}
	rt.cfg.Tracer.BeginSpan(rt.runID, name, rt.Elapsed(), rt.traceTotals())
}

// TraceSpanEnd closes the innermost span opened by TraceSpan or
// BeginPhase. Sequential-code only.
func (rt *Runtime) TraceSpanEnd() {
	if !rt.Tracing() {
		return
	}
	rt.cfg.Tracer.EndSpan(rt.Elapsed(), rt.traceTotals())
}

// TraceMark drops an instant annotation (slab boundary, tile advance) at
// the current simulated time. Sequential-code only.
func (rt *Runtime) TraceMark(label string) {
	rt.cfg.Tracer.Mark(rt.runID, rt.Elapsed(), label)
}

// TraceRestart records a checkpoint resume (a schedule skipping already
// completed l-slabs or stages after a crash-restart) as a KindRestart
// event at the current simulated time. Sequential-code only.
func (rt *Runtime) TraceRestart(label string) {
	rt.cfg.Tracer.Emit(rt.runID, trace.KindRestart, trace.SeqProc, rt.Elapsed(), 0, label, 0, false)
}

// traceEmit forwards one per-operation event to the attached tracer
// under this runtime's run id. Nil-safe and allocation-free when
// tracing is disabled; safe from inside Parallel regions.
func (rt *Runtime) traceEmit(kind trace.Kind, proc int, start, dur float64, name string, elems int64, remote bool) {
	rt.cfg.Tracer.Emit(rt.runID, kind, proc, start, dur, name, elems, remote)
}
