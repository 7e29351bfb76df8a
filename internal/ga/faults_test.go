package ga

import (
	"errors"
	"testing"

	"fourindex/internal/cluster"
	"fourindex/internal/faults"
	"fourindex/internal/tile"
	"fourindex/internal/trace"
)

// A transient fault rate well inside the retry budget must be fully
// absorbed: the region succeeds, retries land in the metrics, and the
// moved data is identical to a fault-free run.
func TestTransientFaultsAbsorbedByRetry(t *testing.T) {
	run, err := cluster.SystemA().Configure(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	rt, err := NewRuntime(Config{
		Procs: 2, Mode: Execute, Run: &run, Tracer: tr,
		Faults: &faults.Plan{Seed: 11, TransientRate: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rt.CreateTiled("A", grids(8, 4, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Parallel(func(p *Proc) {
		buf := make([]float64, 16)
		for i := range buf {
			buf[i] = float64(p.ID()*16 + i)
		}
		for rep := 0; rep < 10; rep++ {
			p.PutT(a, buf, p.ID(), 0)
			p.GetT(a, buf, p.ID(), 0)
		}
	})
	if err != nil {
		t.Fatalf("region with transient faults should succeed via retries: %v", err)
	}
	if got := rt.Totals().Retries; got == 0 {
		t.Error("expected at least one recorded retry at 20% fault rate")
	}
	var retryEvents int
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindRetry {
			retryEvents++
			if ev.Dur <= 0 {
				t.Errorf("retry event has no backoff charged: %+v", ev)
			}
		}
	}
	if int64(retryEvents) != rt.Totals().Retries {
		t.Errorf("retry events %d != retry counter %d", retryEvents, rt.Totals().Retries)
	}
	rt.DestroyTiled(a)
}

// A 100% transient rate exhausts the budget and must surface as a typed
// terminal RetryExhaustedError through Parallel's error wrapping.
func TestRetryExhaustionIsTerminal(t *testing.T) {
	tr := trace.New(0)
	rt, err := NewRuntime(Config{
		Procs: 1, Mode: Execute, Tracer: tr,
		Faults: &faults.Plan{Seed: 3, TransientRate: 1.0, MaxRetries: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rt.CreateTiled("A", grids(2, 2, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Parallel(func(p *Proc) {
		p.PutT(a, make([]float64, 4), 0, 0)
	})
	var re *faults.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want *RetryExhaustedError", err)
	}
	if re.Attempts != 4 || re.Op != "Put" || re.Array != "A" {
		t.Errorf("exhaustion details wrong: %+v", re)
	}
	if !faults.Terminal(err) || faults.Restartable(err) {
		t.Errorf("classification wrong: terminal=%v restartable=%v", faults.Terminal(err), faults.Restartable(err))
	}
	var faultEvents int
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindFault {
			faultEvents++
		}
	}
	if faultEvents != 1 {
		t.Errorf("fault events = %d, want 1", faultEvents)
	}
}

// An injected crash must poison the barrier (siblings unwind), surface
// as a restartable CrashError, and not re-fire in the next registered
// run against the same plan.
func TestCrashPointPoisonsBarrierOnce(t *testing.T) {
	plan := &faults.Plan{Crash: &faults.CrashPoint{Run: 1, Proc: 1, Seq: 0}}
	body := func(a *TiledArray) func(p *Proc) {
		return func(p *Proc) {
			buf := make([]float64, 4)
			p.PutT(a, buf, p.ID(), 0)
			p.Barrier()
			p.GetT(a, buf, p.ID(), 0)
		}
	}

	rt1, err := NewRuntime(Config{Procs: 2, Mode: Execute, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := rt1.CreateTiled("A", grids(4, 2, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	err = rt1.Parallel(body(a1))
	var ce *faults.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CrashError", err)
	}
	if ce.Proc != 1 || ce.Seq != 0 {
		t.Errorf("crash details wrong: %+v", ce)
	}
	if !faults.Restartable(err) {
		t.Error("crash should be restartable")
	}

	// Restart: a fresh runtime registers run 2; the same plan injects
	// nothing and the region completes.
	rt2, err := NewRuntime(Config{Procs: 2, Mode: Execute, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := rt2.CreateTiled("A", grids(4, 2, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Parallel(body(a2)); err != nil {
		t.Fatalf("restarted run should be fault-free: %v", err)
	}
}

// A straggler's clock must run slower than its peers by the configured
// factor, showing up as idle time at the region boundary.
func TestStragglerSlowsOneProcess(t *testing.T) {
	run, err := cluster.SystemA().Configure(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	newRT := func(plan *faults.Plan) *Runtime {
		rt, err := NewRuntime(Config{Procs: 2, Mode: Cost, Run: &run, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	work := func(rt *Runtime) float64 {
		a, err := rt.CreateTiled("A", grids(64, 64, 2), nil, tile.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Parallel(func(p *Proc) {
			p.GetT(a, nil, 0, 0)
			p.Compute(1 << 20)
		}); err != nil {
			t.Fatal(err)
		}
		return rt.Elapsed()
	}
	base := work(newRT(nil))
	slowed := work(newRT(&faults.Plan{Slow: &faults.Straggler{Proc: 1, Factor: 3}}))
	if slowed <= base {
		t.Errorf("straggler run %.6g s not slower than baseline %.6g s", slowed, base)
	}
}

// Late OOM pressure: allocations succeed before the trigger point and
// fail with ErrGlobalOOM once enough operations have run.
func TestLateOOMPressure(t *testing.T) {
	rt, err := NewRuntime(Config{
		Procs: 1, Mode: Execute,
		Faults: &faults.Plan{OOM: &faults.LateOOM{AfterOps: 3, CapBytes: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rt.CreateTiled("A", grids(8, 4, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatalf("pre-trigger create should succeed: %v", err)
	}
	if err := rt.Parallel(func(p *Proc) {
		buf := make([]float64, 16)
		p.PutT(a, buf, 0, 0)
		p.GetT(a, buf, 0, 0)
		p.GetT(a, buf, 1, 1)
		p.GetT(a, buf, 0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	_, err = rt.CreateTiled("B", grids(8, 4, 2), nil, tile.RoundRobin)
	if !errors.Is(err, ErrGlobalOOM) {
		t.Fatalf("post-trigger create returned %v, want ErrGlobalOOM", err)
	}
}

// ChargeCheckpoint must account disk traffic and advance every clock.
func TestChargeCheckpoint(t *testing.T) {
	run, err := cluster.SystemA().Configure(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(Config{Procs: 2, Mode: Cost, Run: &run})
	if err != nil {
		t.Fatal(err)
	}
	rt.ChargeCheckpoint(1000, false)
	rt.ChargeCheckpoint(1000, true)
	if got := rt.DiskVolume(); got != 2000 {
		t.Errorf("DiskVolume = %d, want 2000", got)
	}
	for i, c := range rt.clocks {
		if c <= 0 {
			t.Errorf("clock %d not advanced by checkpoint I/O", i)
		}
	}
	rt.ChargeCheckpoint(0, false)
	if got := rt.DiskVolume(); got != 2000 {
		t.Errorf("zero-word checkpoint charged: DiskVolume = %d", got)
	}
}

// Proc.Fatal must convert an explicit error into a region failure that
// preserves the error chain.
func TestProcFatal(t *testing.T) {
	rt := newExec(t, 2)
	sentinel := errors.New("deliberate")
	err := rt.Parallel(func(p *Proc) {
		if p.ID() == 0 {
			p.Fatal(sentinel)
		}
		p.Fatal(nil) // no-op
		p.Barrier()
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Fatal error not propagated: %v", err)
	}
}

// Snapshot/Restore must round-trip tensor contents and satisfy Strict
// reads of restored tiles.
func TestSnapshotRestoreTiles(t *testing.T) {
	mk := func() (*Runtime, *TiledArray) {
		rt, err := NewRuntime(Config{Procs: 2, Mode: Execute, Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		g := tile.NewGrid(6, 2)
		a, err := rt.CreateTiled("T", []tile.Grid{g, g}, [][2]int{{0, 1}}, tile.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		return rt, a
	}
	rt1, a1 := mk()
	if err := rt1.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		buf := make([]float64, 4)
		a1.ForEachTile(func(coords []int) {
			for i := range buf {
				buf[i] = float64(coords[0]*100 + coords[1]*10 + i)
			}
			p.PutT(a1, buf, coords[0], coords[1])
		})
	}); err != nil {
		t.Fatal(err)
	}
	snap := a1.SnapshotTiles()
	if len(snap) == 0 {
		t.Fatal("empty snapshot of a written tensor")
	}

	_, a2 := mk()
	a2.RestoreTiles(snap)
	if got := a2.SnapshotTiles(); len(got) != len(snap) {
		t.Fatalf("restored snapshot length %d != %d", len(got), len(snap))
	} else {
		for i := range got {
			if got[i] != snap[i] {
				t.Fatalf("restored element %d = %v, want %v", i, got[i], snap[i])
			}
		}
	}
}
