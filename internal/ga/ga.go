// Package ga implements a Global-Arrays-style partitioned global address
// space (PGAS) runtime, the substrate the paper's schedules are written
// against (Section 2.1, Listing 4).
//
// Tensors are blocked into data-tiles, linearised, and distributed over
// processes. Any process can Get, Put, or atomically accumulate (Acc) an
// arbitrary rectangular patch of a distributed array; transfers are
// decomposed tile-by-tile and accounted as remote (inter-node
// communication, the paper's global<->local I/O) or intra-node copies
// depending on tile ownership.
//
// The runtime runs P processes as goroutines inside Parallel regions.
// GA_Sync corresponds to the end of a Parallel region (or an explicit
// Barrier). A region body panicking is converted to an error and the
// barrier is poisoned so sibling processes cannot deadlock.
//
// Two execution modes share all control flow:
//
//   - Execute: tiles hold real float64 data; Get/Put/Acc copy elements.
//     Used for correctness runs at small extents.
//   - Cost: no element storage; all operations only account bytes,
//     messages, memory, and simulated time. Used to replay the paper's
//     molecule-scale experiments (terabytes of state) on one machine.
//
// Memory is enforced: creating a distributed array charges the global
// (aggregate cluster) capacity, and local buffers charge per-process
// capacity. Exceeding either yields ErrGlobalOOM / ErrLocalOOM, which is
// how the evaluation reproduces the paper's "Failed" configurations.
package ga

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fourindex/internal/cluster"
	"fourindex/internal/faults"
	"fourindex/internal/metrics"
	"fourindex/internal/trace"
)

// Mode selects between real execution and cost-only simulation.
type Mode int

const (
	// Execute stores and moves real data.
	Execute Mode = iota
	// Cost runs the same schedules but only accounts costs.
	Cost
)

// String names the mode.
func (m Mode) String() string {
	if m == Cost {
		return "cost"
	}
	return "execute"
}

// ErrGlobalOOM reports that a distributed-array allocation exceeded the
// aggregate physical memory of the simulated cluster.
var ErrGlobalOOM = errors.New("ga: aggregate global memory exhausted")

// ErrLocalOOM reports that a process-local buffer allocation exceeded the
// per-process memory capacity.
var ErrLocalOOM = errors.New("ga: process-local memory exhausted")

// Config parametrises a runtime.
type Config struct {
	Procs int
	Mode  Mode
	// Run supplies the machine cost model; nil disables simulated time.
	Run *cluster.Run
	// GlobalMemBytes caps the sum of live distributed arrays
	// (aggregate cluster memory). 0 means unlimited.
	GlobalMemBytes int64
	// LocalMemBytes caps per-process local buffer allocations.
	// 0 means unlimited.
	LocalMemBytes int64
	// Strict panics when a Get touches a tile that was never written,
	// catching missing-synchronisation bugs in schedules.
	Strict bool
	// AllowSpill turns aggregate-memory exhaustion into out-of-core
	// execution instead of ErrGlobalOOM: a tensor that does not fit
	// becomes disk-resident and all of its traffic is charged at the
	// (collective, shared) file-system bandwidth. This models the
	// disk-spilling alternative the paper's zero-spill schedules
	// eliminate (Section 3).
	AllowSpill bool
	// Tracer, when non-nil, receives per-operation events and phase
	// spans (see internal/trace). Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// Overlap enables the nonblocking verbs (NbGetT/NbPutT/NbAccT) to
	// actually overlap communication with computation. When false (the
	// default) the nonblocking verbs degrade to their blocking
	// equivalents at issue time — identical clocks, events, and fault
	// points — so schedules can be written against the nonblocking API
	// unconditionally.
	Overlap bool
	// OverlapEfficiency is the fraction of an in-flight transfer's time
	// that computation can hide, in (0, 1]. At Wait the process is
	// charged max(arrival - now, (1-e) * duration): e = 1 (the default
	// when this is zero) hides everything that finished in flight,
	// while values near 0 approach the blocking sum rule.
	OverlapEfficiency float64
	// Faults, when non-nil, is the deterministic fault plan consulted
	// on every Get/Put/Acc (see internal/faults): transient faults are
	// retried with exponential backoff charged on the simulated clock,
	// crash points and retry exhaustion panic with typed errors that
	// poison the barrier, stragglers stretch one process's time
	// charges, and late OOM pressure shrinks the effective aggregate
	// capacity. Nil injects nothing.
	Faults *faults.Plan
}

// Runtime is a PGAS runtime instance.
type Runtime struct {
	cfg      Config
	counters []*metrics.Counters
	clocks   []float64
	barrier  *clockBarrier

	mu          sync.Mutex
	globalBytes int64
	peakGlobal  int64
	liveArrays  int

	// idle accumulates per-process wait time at synchronisation
	// points: the load-imbalance cost the paper's Section 7.3
	// discusses for triangular work distributions.
	idle []float64

	phases *phaseTracker // sequential-section phase accounting

	// runID identifies this runtime instance in the attached tracer (a
	// hybrid driver runs several runtimes against one tracer).
	runID int32

	// faultRun is this runtime's run number in the fault plan (plan-
	// owned, so one-shot crash points do not re-fire after a restart).
	faultRun int
	// opSeqs counts fault-consulted operations per process. Each slot
	// has a single writer (its process goroutine); sums are read only
	// from sequential code after a region boundary.
	opSeqs []int64
	// slow holds per-process straggler factors (1.0 = full speed).
	slow []float64

	// Nonblocking-transfer state (see nb.go). Every slice is indexed by
	// process id with a single writer (that process's goroutine), like
	// clocks. nbChanFree is the simulated time each process's comm
	// channel becomes free (in-flight transfers serialise per process);
	// nbAppliers holds the per-process Execute-mode apply workers that
	// land deferred copies in per-process FIFO order; nbOutstanding
	// counts handles not yet waited (checked at region exit);
	// commExposed/commOverlapped split each process's transfer seconds
	// into time it waited for versus time hidden behind compute.
	nbChanFree     []float64
	nbAppliers     []*nbApplier
	applierWG      sync.WaitGroup
	nbOutstanding  []int
	commExposed    []float64
	commOverlapped []float64

	// arenas holds each process's handle and buffer-lifetime records
	// (see procArena), indexed by process id with a single writer like
	// clocks. They live as long as the runtime, so a chunk's unused
	// entries carry over from one region to the next.
	arenas []procArena

	// bufPools recycles Execute-mode local staging buffers, bucketed by
	// power-of-two capacity: the schedules allocate and free the same
	// tile-sized Get/Put/Acc buffers once per work unit, and without
	// reuse that garbage dominates execute-mode allocation volume. The
	// ledger accounting in AllocLocal/FreeLocal is unchanged — pooling
	// only recycles the physical storage. boxPool recycles the
	// *[]float64 headers cycled through bufPools so putPooled does not
	// allocate a fresh 3-word box per recycle.
	bufPools [poolBuckets]sync.Pool
	boxPool  sync.Pool
}

// procArena is one process's source of Handle and bufState records,
// the only heap objects a simulated operation would otherwise make.
type procArena struct {
	handles arena[Handle]
	bufs    arena[bufState]
}

// arenaMinChunk and arenaMaxChunk bound the chunk sizes an arena grows
// through by doubling: a process that issues few operations (a run can
// simulate thousands of processes) keeps small chunks, and one that
// issues many allocates once per arenaMaxChunk records. A full chunk of
// handles (96 B each) stays below the allocator's 32 KB large-object
// threshold: 1024-record chunks, allocated as large objects, raised the
// serve-cost benchmark's peak RSS by 1 MB on a 2-core VM.
const (
	arenaMinChunk = 16
	arenaMaxChunk = 256
)

// arena hands out pointers to zeroed records carved from chunks, one
// heap allocation per chunk instead of one per record. A record is never
// reused: a stale pointer still sees its own state, so the waited-twice,
// wrong-process and BufferFreeError checks fire exactly as they would on
// a freshly allocated record, and the garbage collector frees a chunk
// once nothing points into it.
type arena[T any] struct {
	free  []T
	chunk int // size of the last chunk allocated
}

// next returns a fresh zeroed record.
func (a *arena[T]) next() *T {
	if len(a.free) == 0 {
		a.chunk = min(max(2*a.chunk, arenaMinChunk), arenaMaxChunk)
		a.free = make([]T, a.chunk)
	}
	r := &a.free[0]
	a.free = a.free[1:]
	return r
}

// poolBuckets bounds the buffer-pool size classes: bucket b holds
// slices of capacity 2^b elements, so 2^40 elements (8 TiB) is far
// beyond any execute-mode buffer.
const poolBuckets = 41

// NewRuntime validates the configuration and builds a runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("ga: non-positive process count %d", cfg.Procs)
	}
	if e := cfg.OverlapEfficiency; e < 0 || e > 1 {
		return nil, fmt.Errorf("ga: overlap efficiency %v out of [0, 1]", e)
	}
	rt := &Runtime{
		cfg:            cfg,
		counters:       make([]*metrics.Counters, cfg.Procs),
		clocks:         make([]float64, cfg.Procs),
		idle:           make([]float64, cfg.Procs),
		opSeqs:         make([]int64, cfg.Procs),
		slow:           make([]float64, cfg.Procs),
		nbChanFree:     make([]float64, cfg.Procs),
		nbOutstanding:  make([]int, cfg.Procs),
		commExposed:    make([]float64, cfg.Procs),
		commOverlapped: make([]float64, cfg.Procs),
		arenas:         make([]procArena, cfg.Procs),
		barrier:        newClockBarrier(cfg.Procs),
	}
	for i := range rt.counters {
		rt.counters[i] = &metrics.Counters{}
	}
	for i := range rt.slow {
		rt.slow[i] = cfg.Faults.SlowFactor(i)
	}
	rt.runID = cfg.Tracer.RegisterRun()
	rt.faultRun = cfg.Faults.RegisterRun()
	return rt, nil
}

// Procs returns the process count (GA_Nnodes).
func (rt *Runtime) Procs() int { return rt.cfg.Procs }

// Mode returns the execution mode.
func (rt *Runtime) Mode() Mode { return rt.cfg.Mode }

// GlobalBytes returns the bytes currently held by live distributed arrays.
func (rt *Runtime) GlobalBytes() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.globalBytes
}

// PeakGlobalBytes returns the high-water mark of distributed-array bytes,
// i.e. the aggregate-memory footprint of the executed schedule.
func (rt *Runtime) PeakGlobalBytes() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.peakGlobal
}

// LiveArrays returns the number of distributed arrays not yet destroyed.
func (rt *Runtime) LiveArrays() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.liveArrays
}

// Elapsed returns the simulated wall time: the maximum process clock.
// Zero when no cost model is configured.
func (rt *Runtime) Elapsed() float64 {
	var m float64
	for _, c := range rt.clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// ProcCounters returns the metrics of process p.
func (rt *Runtime) ProcCounters(p int) *metrics.Counters { return rt.counters[p] }

// Totals aggregates the per-process counters.
func (rt *Runtime) Totals() metrics.Snapshot {
	var t metrics.Snapshot
	for _, c := range rt.counters {
		s := c.Snapshot()
		t.Flops += s.Flops
		t.DiskTraffic += s.DiskTraffic
		t.CommTraffic += s.CommTraffic
		t.DiskMessages += s.DiskMessages
		t.CommMessages += s.CommMessages
		t.Retries += s.Retries
		if s.PeakElements > t.PeakElements {
			t.PeakElements = s.PeakElements
		}
	}
	return t
}

// CommVolume returns total inter-node elements moved (both directions).
func (rt *Runtime) CommVolume() int64 {
	var v int64
	for _, c := range rt.counters {
		v += c.Traffic(metrics.LevelGlobal)
	}
	return v
}

// IntraVolume returns total same-node get/put elements moved.
func (rt *Runtime) IntraVolume() int64 {
	var v int64
	for _, c := range rt.counters {
		v += c.Traffic(metrics.LevelIntra)
	}
	return v
}

// DiskVolume returns total elements moved to or from disk-resident
// tensors (zero unless AllowSpill let a tensor overflow to disk).
func (rt *Runtime) DiskVolume() int64 {
	var v int64
	for _, c := range rt.counters {
		v += c.Traffic(metrics.LevelDisk)
	}
	return v
}

// regionPanic wraps a panic value recovered from a Parallel body.
type regionPanic struct {
	proc int
	val  any
}

// Parallel runs body concurrently on every process and waits for all of
// them (the boundary acts as GA_Sync). If any body panics, the panic is
// captured, sibling barriers are poisoned, and an error is returned.
// Clocks are synchronised to the maximum at exit.
func (rt *Runtime) Parallel(body func(p *Proc)) error {
	// Overlapped Execute regions run one long-lived apply worker per
	// process (see nb.go); workers are drained and joined before the
	// region returns on every path, including panic propagation.
	appliers := rt.cfg.Overlap && rt.cfg.Mode == Execute
	if appliers {
		rt.startAppliers()
	}
	var wg sync.WaitGroup
	panics := make(chan regionPanic, rt.cfg.Procs)
	for i := 0; i < rt.cfg.Procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					if _, poisoned := v.(barrierBroken); !poisoned {
						panics <- regionPanic{proc: id, val: v}
					}
					rt.barrier.poison()
				}
			}()
			body(&Proc{rt: rt, id: id})
			// Region exit is a barrier: every nonblocking handle must
			// have been waited by now, or deferred work could cross the
			// synchronisation point (see nb.go).
			if n := rt.nbOutstanding[id]; n != 0 {
				panic(fmt.Sprintf("ga: process %d left %d nonblocking handle(s) unwaited at region exit", id, n))
			}
		}(i)
	}
	wg.Wait()
	close(panics)
	if appliers {
		rt.stopAppliers()
	}
	if rp, ok := <-panics; ok {
		rt.barrier.reset(rt.cfg.Procs)
		if err, isErr := rp.val.(error); isErr {
			return fmt.Errorf("ga: process %d failed: %w", rp.proc, err)
		}
		return fmt.Errorf("ga: process %d panicked: %v", rp.proc, rp.val)
	}
	// Region boundary is a synchronisation point: all clocks advance
	// to the maximum; the gaps are idle (load-imbalance) time.
	var m float64
	for _, c := range rt.clocks {
		if c > m {
			m = c
		}
	}
	for i := range rt.clocks {
		rt.idle[i] += m - rt.clocks[i]
		rt.clocks[i] = m
	}
	return nil
}

// IdleFraction returns the fraction of total process-time spent waiting
// at synchronisation points — 0 for perfect balance, approaching 1 when
// one process serialises the run. Zero when no cost model is configured.
func (rt *Runtime) IdleFraction() float64 {
	elapsed := rt.Elapsed()
	if elapsed <= 0 {
		return 0
	}
	var idle float64
	for _, v := range rt.idle {
		idle += v
	}
	return idle / (elapsed * float64(rt.cfg.Procs))
}

// CommExposedSeconds returns the total simulated transfer time processes
// actually waited for (blocking transfers plus the exposed remainder of
// nonblocking ones). Sequential-code only, like Totals.
func (rt *Runtime) CommExposedSeconds() float64 {
	var s float64
	for _, v := range rt.commExposed {
		s += v
	}
	return s
}

// CommOverlapSeconds returns the total simulated transfer time hidden
// behind computation by nonblocking operations. Sequential-code only.
func (rt *Runtime) CommOverlapSeconds() float64 {
	var s float64
	for _, v := range rt.commOverlapped {
		s += v
	}
	return s
}

// Proc is the per-process handle passed to Parallel bodies.
type Proc struct {
	rt *Runtime
	id int
}

// ID returns the process rank (GA_Nodeid).
func (p *Proc) ID() int { return p.id }

// Procs returns the total process count.
func (p *Proc) Procs() int { return p.rt.cfg.Procs }

// Counters returns this process's metrics.
func (p *Proc) Counters() *metrics.Counters { return p.rt.counters[p.id] }

// Clock returns this process's simulated time in seconds.
func (p *Proc) Clock() float64 { return p.rt.clocks[p.id] }

// Compute accounts flops floating-point operations and advances the
// simulated clock by the machine model's compute time.
func (p *Proc) Compute(flops int64) {
	p.ComputeEff(flops, 1)
}

// ComputeEff accounts flops with a kernel-efficiency factor in (0, 1]:
// the full operation count is recorded, but simulated time is
// flops / (rate * eff). Used to model implementations whose kernel
// shapes (e.g. the per-row DGEMM calls of the paper's Listing 4) sustain
// only a fraction of tuned-GEMM throughput.
func (p *Proc) ComputeEff(flops int64, eff float64) {
	if eff <= 0 || eff > 1 {
		panic(fmt.Sprintf("ga: kernel efficiency %v out of (0, 1]", eff))
	}
	p.Counters().AddFlops(flops)
	if r := p.rt.cfg.Run; r != nil {
		p.rt.clocks[p.id] += r.ComputeSeconds(flops) / eff * p.rt.slow[p.id]
	}
}

// Barrier synchronises all processes inside a Parallel region (GA_Sync)
// and aligns their clocks to the maximum.
func (p *Proc) Barrier() {
	before := p.rt.clocks[p.id]
	after := p.rt.barrier.await(before)
	p.rt.idle[p.id] += after - before
	p.rt.clocks[p.id] = after
	p.rt.traceEmit(trace.KindBarrier, p.id, before, after-before, "barrier", 0, false)
}

// Buffer is a process-local allocation. Data is nil in Cost mode.
type Buffer struct {
	Data  []float64
	words int64
	// state tracks the allocation's owner and lifetime so an invalid
	// FreeLocal fails loudly instead of corrupting the ledger. Shared
	// by all copies of the Buffer value; nil for a Buffer that did not
	// come from AllocLocal.
	state *bufState
}

// bufState is the shared lifetime record behind every Buffer copy.
type bufState struct {
	owner int
	freed bool
}

// BufferFreeError reports a FreeLocal that would have corrupted the
// local-memory ledger: freeing a buffer twice, freeing a buffer that
// never came from AllocLocal, or freeing another process's buffer.
type BufferFreeError struct {
	// Words is the buffer's element capacity.
	Words int64
	// Owner is the allocating process, or -1 when unknown (a foreign
	// buffer that never came from AllocLocal).
	Owner int
	// Proc is the process that attempted the free.
	Proc int
	// Reason says which rule the free violated.
	Reason string
}

// Error formats the violation with the buffer's identity.
func (e *BufferFreeError) Error() string {
	return fmt.Sprintf("ga: FreeLocal on process %d: %s (buffer of %d words, owner %d)",
		e.Proc, e.Reason, e.Words, e.Owner)
}

// Words returns the element capacity of the buffer.
func (b Buffer) Words() int64 { return b.words }

// AllocLocal reserves words elements of process-local memory, enforcing
// the per-process capacity. In Execute mode the returned buffer carries
// real zeroed storage.
func (p *Proc) AllocLocal(words int64) (Buffer, error) {
	if words < 0 {
		return Buffer{}, fmt.Errorf("ga: negative local allocation %d", words)
	}
	c := p.Counters()
	if lim := p.rt.cfg.LocalMemBytes; lim > 0 && (c.Current()+words)*8 > lim {
		return Buffer{}, fmt.Errorf("%w: process %d needs %d B, capacity %d B (already using %d B)",
			ErrLocalOOM, p.id, words*8, lim, c.Current()*8)
	}
	c.Alloc(words)
	st := p.rt.arenas[p.id].bufs.next()
	st.owner = p.id
	b := Buffer{words: words, state: st}
	if p.rt.cfg.Mode == Execute && words > 0 {
		b.Data = p.rt.getPooled(words)
	}
	return b, nil
}

// getPooled returns a zeroed slice of length words from the bucketed
// buffer pool, allocating a bucket-capacity slice on a miss. Buffers
// are re-zeroed on reuse because AllocLocal promises zeroed storage
// (the fused schedules accumulate GEMMs into fresh buffers).
func (rt *Runtime) getPooled(words int64) []float64 {
	bkt := poolBucket(words)
	if bkt < 0 {
		return make([]float64, words)
	}
	if v := rt.bufPools[bkt].Get(); v != nil {
		box := v.(*[]float64)
		s := (*box)[:words]
		*box = nil
		rt.boxPool.Put(box)
		clear(s)
		return s
	}
	return make([]float64, words, int64(1)<<bkt)
}

// putPooled recycles a buffer's storage. Only slices whose capacity is
// exactly a bucket size re-enter the pool, so a future Get can always
// reslice to any length the bucket covers.
func (rt *Runtime) putPooled(s []float64) {
	bkt := poolBucket(int64(cap(s)))
	if bkt < 0 || cap(s) != 1<<bkt {
		return
	}
	var box *[]float64
	if v := rt.boxPool.Get(); v != nil {
		box = v.(*[]float64)
	} else {
		box = new([]float64)
	}
	*box = s[:cap(s)]
	rt.bufPools[bkt].Put(box)
}

// poolBucket returns the smallest power-of-two bucket holding words
// elements, or -1 when words is outside the pooled range.
func poolBucket(words int64) int {
	for b := 0; b < poolBuckets; b++ {
		if int64(1)<<b >= words {
			return b
		}
	}
	return -1
}

// MustAllocLocal is AllocLocal that panics on failure (the panic is
// converted to an error by Parallel).
func (p *Proc) MustAllocLocal(words int64) Buffer {
	b, err := p.AllocLocal(words)
	if err != nil {
		panic(err)
	}
	return b
}

// FreeLocal releases a local buffer. The caller must not retain b.Data
// afterwards: in Execute mode the storage re-enters the buffer pool and
// a later AllocLocal may hand it to another process. Freeing a buffer
// twice, a buffer that never came from AllocLocal, or another process's
// buffer panics with *BufferFreeError (converted to an error by
// Parallel) instead of silently corrupting the ledger.
func (p *Proc) FreeLocal(b Buffer) {
	if b.state == nil {
		panic(&BufferFreeError{Words: b.words, Owner: -1, Proc: p.id,
			Reason: "foreign buffer (not from AllocLocal)"})
	}
	if b.state.owner != p.id {
		panic(&BufferFreeError{Words: b.words, Owner: b.state.owner, Proc: p.id,
			Reason: "cross-process free"})
	}
	if b.state.freed {
		panic(&BufferFreeError{Words: b.words, Owner: b.state.owner, Proc: p.id,
			Reason: "double free"})
	}
	b.state.freed = true
	p.Counters().Free(b.words)
	if b.Data != nil {
		p.rt.putPooled(b.Data)
	}
}

// chargeTransfer accounts one tile-fragment transfer of elems elements.
func (p *Proc) chargeTransfer(remote bool, elems int64, isLoad bool) {
	c := p.Counters()
	lvl := metrics.LevelIntra
	if remote {
		lvl = metrics.LevelGlobal
	}
	if isLoad {
		c.AddLoad(lvl, elems)
	} else {
		c.AddStore(lvl, elems)
	}
	if r := p.rt.cfg.Run; r != nil {
		var dt float64
		if remote {
			dt = r.RemoteSeconds(elems*8) * p.rt.slow[p.id]
		} else {
			dt = r.LocalSeconds(elems*8) * p.rt.slow[p.id]
		}
		p.rt.clocks[p.id] += dt
		// A blocking transfer is fully exposed: the process waits for
		// all of it (the denominator of the exposed-comm fraction).
		p.rt.commExposed[p.id] += dt
	}
}

// chargeDisk accounts one transfer against a disk-resident tensor.
func (p *Proc) chargeDisk(elems int64, isLoad bool) {
	c := p.Counters()
	if isLoad {
		c.AddLoad(metrics.LevelDisk, elems)
	} else {
		c.AddStore(metrics.LevelDisk, elems)
	}
	if r := p.rt.cfg.Run; r != nil {
		dt := r.DiskSeconds(elems*8) * p.rt.slow[p.id]
		p.rt.clocks[p.id] += dt
		p.rt.commExposed[p.id] += dt
	}
}

// barrierBroken is the panic value used to unwind processes waiting on a
// poisoned barrier.
type barrierBroken struct{}

// clockBarrier is a reusable rendezvous that also propagates the maximum
// simulated clock to all participants.
type clockBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
	max     float64
	results [2]float64
	broken  atomic.Bool
}

func newClockBarrier(n int) *clockBarrier {
	b := &clockBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n participants arrive, then returns the maximum
// clock among them. Panics with barrierBroken if the barrier is poisoned.
func (b *clockBarrier) await(clock float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken.Load() {
		panic(barrierBroken{})
	}
	if clock > b.max {
		b.max = clock
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.results[gen%2] = b.max
		b.max = 0
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return b.results[gen%2]
	}
	for gen == b.gen && !b.broken.Load() {
		b.cond.Wait()
	}
	if b.broken.Load() {
		panic(barrierBroken{})
	}
	return b.results[gen%2]
}

// poison releases all waiters with a panic and marks the barrier broken.
func (b *clockBarrier) poison() {
	b.mu.Lock()
	b.broken.Store(true)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// reset re-arms a poisoned barrier for subsequent regions.
func (b *clockBarrier) reset(n int) {
	b.mu.Lock()
	b.n = n
	b.arrived = 0
	b.max = 0
	b.broken.Store(false)
	b.mu.Unlock()
}
