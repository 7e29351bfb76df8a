package ga

import (
	"fmt"
	"sync"

	"fourindex/internal/metrics"
	"fourindex/internal/trace"
)

// This file implements the nonblocking transfer verbs (NbGetT, NbPutT,
// NbAccT) and their typed completion handles, the analogue of Global
// Arrays' ga_nbget/ga_nbacc that production NWChem uses to hide remote
// latency behind computation (the paper's Section 7 schedules are
// written against the blocking API purely for exposition).
//
// Cost model. Each process owns one simulated communication channel.
// Issuing a nonblocking transfer reserves the channel from
// max(clock, channelFree) for the transfer's duration and returns
// immediately — the clock does not advance at issue. At Wait the
// process is charged only the exposed part of the transfer,
//
//	exposed = max(arrival - now, (1 - e) * duration)
//
// where e is Config.OverlapEfficiency: compute issued between the
// NbGetT and its Wait hides the in-flight time, so the clock advances
// by max(comm, compute) over the overlap window instead of their sum.
// Transfer volume, message counts, and fault points are identical to
// the blocking verbs; only the time charge moves.
//
// Execute model. Put/Acc payloads are copied synchronously into a
// handle-owned staging buffer at issue (the caller may reuse its buffer
// immediately); the actual tile read or update is enqueued, by value,
// on the issuing process's long-lived apply worker (started by Parallel
// for overlapped Execute regions), so deferred operations apply in
// exactly the per-process program order the blocking verbs would have
// used — combined with the schedules' single-writer-per-tile ownership
// this keeps results bitwise identical to blocking execution. One
// worker per process, fed a buffered channel of plain request structs,
// replaces the earlier goroutine-per-operation chain whose closure,
// channel and goroutine allocations dominated overlap-mode allocation
// volume. Staging storage comes from the runtime's buffer pool but is
// owned by the handle until Wait, so a pooled buffer is never reused
// while a transfer is in flight.
//
// Fault injection fires at Wait, not issue: Waits occur in per-process
// program order, so the (proc, seq) stream a fault plan keys on is
// deterministic and seeded chaos plans replay identically with overlap
// enabled.
//
// When Config.Overlap is false the nonblocking verbs degrade to their
// blocking equivalents at issue time — same clocks, same trace events,
// same fault points — so schedules are written against this API
// unconditionally and overlap-off runs stay byte-identical to the
// pre-nonblocking runtime.

// nbOp classifies a nonblocking transfer.
type nbOp uint8

const (
	nbGet nbOp = iota
	nbPut
	nbAcc
)

// faultName is the fault-point operation label, matching the blocking
// verbs so trace labels stay comparable.
func (o nbOp) faultName() string {
	switch o {
	case nbPut:
		return "Put"
	case nbAcc:
		return "Acc"
	default:
		return "Get"
	}
}

// issueKind is the trace event kind emitted at issue.
func (o nbOp) issueKind() trace.Kind {
	switch o {
	case nbPut:
		return trace.KindNbPut
	case nbAcc:
		return trace.KindNbAcc
	default:
		return trace.KindNbGet
	}
}

// Handle is the typed completion handle of one nonblocking transfer.
// It must reach Wait (or WaitAll) on the issuing process before the
// enclosing Parallel region ends — region exit checks and the
// nbdiscipline analyzer enforces the pairing statically.
type Handle struct {
	op    nbOp
	name  string
	proc  int
	words int64
	remote bool

	// Simulated-time fields: dur is the in-flight transfer time,
	// arrival the simulated instant the transfer completes on the
	// process's comm channel.
	dur     float64
	arrival float64

	// Execute-mode fields: seq is this operation's position in the
	// issuing process's apply-worker stream (0 when no deferred apply
	// was enqueued); staging holds a Put/Acc payload until the worker
	// lands it. stagingWords is the local-memory ledger charge released
	// at Wait.
	seq          int64
	staging      []float64
	stagingWords int64

	// noop marks degraded (overlap-off) and sparse-tile handles whose
	// Wait does nothing.
	noop   bool
	waited bool
}

// degraded is the shared handle returned when Config.Overlap is off or
// the target tile is symmetry-forbidden: the operation (if any) already
// completed at issue, so Wait is a no-op.
var degraded = &Handle{noop: true}

// NbGetT starts a nonblocking fetch of the tile at coords into buf and
// returns its handle. buf must hold the whole tile (nil in Cost mode)
// and must not be read — or freed — until Wait returns; the deferred
// copy may land any time up to then.
func (p *Proc) NbGetT(a *TiledArray, buf []float64, coords ...int) *Handle {
	if !p.rt.cfg.Overlap {
		p.GetT(a, buf, coords...)
		return degraded
	}
	a.checkAlive("NbGetT")
	id := a.canonicalID(coords)
	words := a.TileWords(coords)
	if a.stored != nil && !a.stored[id] {
		// Symmetry-forbidden block: reads are free zeros, like GetT.
		if p.rt.cfg.Mode == Execute {
			if len(buf) < words {
				panic(fmt.Sprintf("ga: NbGetT buffer %d < tile words %d", len(buf), words))
			}
			for i := 0; i < words; i++ {
				buf[i] = 0
			}
		}
		return degraded
	}
	if a.written != nil && !a.written[id].Load() {
		// Format a copy: formatting coords itself would make every
		// caller's coordinate slice escape to the heap.
		panic(fmt.Sprintf("ga: strict: NbGetT of never-written tile %v of %q", append([]int(nil), coords...), a.Name))
	}
	h := &Handle{op: nbGet, name: a.Name, proc: p.id, words: int64(words)}
	h.remote = p.nbIssue(h, a, id, true)
	if p.rt.cfg.Mode == Execute {
		if len(buf) < words {
			panic(fmt.Sprintf("ga: NbGetT buffer %d < tile words %d", len(buf), words))
		}
		h.seq = p.nbEnqueue(nbApplyReq{a: a, buf: buf, id: id, words: words, get: true})
	}
	p.rt.nbOutstanding[p.id]++
	return h
}

// NbPutT starts a nonblocking overwrite of the tile at coords with buf
// and returns its handle. buf is copied into handle-owned staging
// before NbPutT returns, so the caller may reuse it immediately.
func (p *Proc) NbPutT(a *TiledArray, buf []float64, coords ...int) *Handle {
	return p.nbUpdateT("NbPutT", nbPut, a, 0, buf, coords)
}

// NbAccT starts a nonblocking accumulation of alpha*buf into the tile
// at coords and returns its handle. buf is copied into handle-owned
// staging before NbAccT returns, so the caller may reuse it
// immediately.
func (p *Proc) NbAccT(a *TiledArray, alpha float64, buf []float64, coords ...int) *Handle {
	return p.nbUpdateT("NbAccT", nbAcc, a, alpha, buf, coords)
}

func (p *Proc) nbUpdateT(verb string, op nbOp, a *TiledArray, alpha float64, buf []float64, coords []int) *Handle {
	if !p.rt.cfg.Overlap {
		p.updateT(verb, a, alpha, op == nbAcc, buf, coords)
		return degraded
	}
	a.checkAlive(verb)
	if a.frozen.Load() {
		panic(fmt.Sprintf("ga: %s on frozen tensor %q", verb, a.Name))
	}
	id := a.canonicalID(coords)
	words := a.TileWords(coords)
	if a.stored != nil && !a.stored[id] {
		return degraded // symmetry-forbidden block: writes are no-ops
	}
	h := &Handle{op: op, name: a.Name, proc: p.id, words: int64(words)}
	h.remote = p.nbIssue(h, a, id, false)
	if a.written != nil {
		a.written[id].Store(true)
	}
	// The staging buffer is charged to the issuing process's ledger in
	// both modes, so Cost and Execute report the same peak footprint.
	c := p.Counters()
	if lim := p.rt.cfg.LocalMemBytes; lim > 0 && (c.Current()+int64(words))*8 > lim {
		panic(fmt.Errorf("%w: process %d staging for %s of %q needs %d B, capacity %d B (already using %d B)",
			ErrLocalOOM, p.id, verb, a.Name, int64(words)*8, lim, c.Current()*8))
	}
	c.Alloc(int64(words))
	h.stagingWords = int64(words)
	if p.rt.cfg.Mode == Execute {
		if len(buf) < words {
			panic(fmt.Sprintf("ga: %s buffer %d < tile words %d", verb, len(buf), words))
		}
		h.staging = p.rt.getPooled(int64(words))
		copy(h.staging, buf[:words])
		h.seq = p.nbEnqueue(nbApplyReq{a: a, buf: h.staging, id: id, words: words, acc: op == nbAcc, alpha: alpha})
	}
	p.rt.nbOutstanding[p.id]++
	return h
}

// nbIssue accounts a nonblocking transfer's traffic at issue and
// reserves the process's comm channel for its duration: counters and
// messages are identical to the blocking verbs, but the clock does not
// advance. Returns whether the transfer was remote.
func (p *Proc) nbIssue(h *Handle, a *TiledArray, id int, isLoad bool) bool {
	c := p.Counters()
	remote := false
	var dur float64
	r := p.rt.cfg.Run
	if a.onDisk {
		if isLoad {
			c.AddLoad(metrics.LevelDisk, h.words)
		} else {
			c.AddStore(metrics.LevelDisk, h.words)
		}
		if r != nil {
			dur = r.DiskSeconds(h.words*8) * p.rt.slow[p.id]
		}
	} else {
		remote = a.Dist.Owner(id) != p.id
		lvl := metrics.LevelIntra
		if remote {
			lvl = metrics.LevelGlobal
		}
		if isLoad {
			c.AddLoad(lvl, h.words)
		} else {
			c.AddStore(lvl, h.words)
		}
		if r != nil {
			if remote {
				dur = r.RemoteSeconds(h.words*8) * p.rt.slow[p.id]
			} else {
				dur = r.LocalSeconds(h.words*8) * p.rt.slow[p.id]
			}
		}
	}
	start := p.rt.clocks[p.id]
	if free := p.rt.nbChanFree[p.id]; free > start {
		start = free
	}
	h.dur = dur
	h.arrival = start + dur
	p.rt.nbChanFree[p.id] = h.arrival
	p.rt.traceEmit(h.op.issueKind(), p.id, start, dur, h.name, h.words, remote)
	return remote
}

// nbApplyReq is one deferred Execute-mode tile operation, passed by
// value through the apply worker's channel so enqueueing allocates
// nothing. get selects nbReadTile (buf is the caller's destination);
// otherwise nbApplyTile runs with buf as the handle-owned staging copy.
type nbApplyReq struct {
	a     *TiledArray
	buf   []float64
	id    int
	words int
	alpha float64
	acc   bool
	get   bool
}

// nbApplier is one process's apply worker: a single long-lived
// goroutine draining a FIFO of deferred operations. issued has a single
// writer (the process goroutine); applied is published under mu and
// waited on via cond.
type nbApplier struct {
	ch      chan nbApplyReq
	mu      sync.Mutex
	cond    *sync.Cond
	issued  int64
	applied int64
}

// nbApplierQueue is the apply channel's buffer depth. Deep enough that
// issuing processes rarely block behind in-flight tile copies; shallow
// enough that an abandoned region drains quickly.
const nbApplierQueue = 128

// run drains the apply channel until it is closed, publishing each
// completion for Wait.
func (ap *nbApplier) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for req := range ap.ch {
		if req.get {
			req.a.nbReadTile(req.buf, req.id, req.words)
		} else {
			req.a.nbApplyTile(req.acc, req.alpha, req.buf, req.id, req.words)
		}
		ap.mu.Lock()
		ap.applied++
		ap.cond.Broadcast()
		ap.mu.Unlock()
	}
}

// waitFor blocks until the operation with the given sequence number has
// applied.
func (ap *nbApplier) waitFor(seq int64) {
	ap.mu.Lock()
	for ap.applied < seq {
		ap.cond.Wait()
	}
	ap.mu.Unlock()
}

// nbEnqueue hands req to this process's apply worker and returns its
// sequence number (1-based within the region).
func (p *Proc) nbEnqueue(req nbApplyReq) int64 {
	ap := p.rt.nbAppliers[p.id]
	ap.issued++
	ap.ch <- req
	return ap.issued
}

// startAppliers arms one apply worker per process for an overlapped
// Execute region. Sequence counters restart per region — handles cannot
// outlive the region that issued them.
func (rt *Runtime) startAppliers() {
	if rt.nbAppliers == nil {
		rt.nbAppliers = make([]*nbApplier, rt.cfg.Procs)
		for i := range rt.nbAppliers {
			ap := &nbApplier{}
			ap.cond = sync.NewCond(&ap.mu)
			rt.nbAppliers[i] = ap
		}
	}
	for _, ap := range rt.nbAppliers {
		ap.ch = make(chan nbApplyReq, nbApplierQueue)
		ap.issued, ap.applied = 0, 0
		rt.applierWG.Add(1)
		go ap.run(&rt.applierWG)
	}
}

// stopAppliers closes every apply channel and joins the workers,
// draining any operations a panicking region abandoned.
func (rt *Runtime) stopAppliers() {
	for _, ap := range rt.nbAppliers {
		close(ap.ch)
	}
	rt.applierWG.Wait()
}

// nbReadTile is the deferred Execute-mode tile read, with the same lock
// discipline as GetT (lock-free when frozen).
func (a *TiledArray) nbReadTile(buf []float64, id, words int) {
	if a.frozen.Load() {
		a.copyTile(buf, id, words)
		return
	}
	a.locks[id].RLock()
	a.copyTile(buf, id, words)
	a.locks[id].RUnlock()
}

// nbApplyTile is the deferred Execute-mode tile write, with the same
// lock discipline as PutT/AccT.
func (a *TiledArray) nbApplyTile(acc bool, alpha float64, buf []float64, id, words int) {
	a.locks[id].Lock()
	if a.data[id] == nil {
		a.data[id] = make([]float64, words)
	}
	dst := a.data[id]
	if acc {
		for i := 0; i < words; i++ {
			dst[i] += alpha * buf[i]
		}
	} else {
		copy(dst, buf[:words])
	}
	a.locks[id].Unlock()
}

// Wait completes the transfer on the issuing process: the fault plan is
// consulted here (so retries and crashes fire at Wait, in per-process
// program order), the clock is charged the exposed part of the transfer
// time, and — in Execute mode — the deferred copy is joined and the
// staging buffer released back to the pool. Waiting a handle twice or
// from the wrong process panics. Nil and degraded handles are no-ops.
func (h *Handle) Wait(p *Proc) {
	if h == nil || h.noop {
		return
	}
	if h.proc != p.id {
		panic(fmt.Sprintf("ga: process %d waiting a handle issued by process %d", p.id, h.proc))
	}
	if h.waited {
		panic(fmt.Sprintf("ga: handle for %s of %q waited twice", h.op.faultName(), h.name))
	}
	p.faultPoint(h.op.faultName(), h.name)
	now := p.rt.clocks[p.id]
	exposed := h.arrival - now
	e := p.rt.cfg.OverlapEfficiency
	if e == 0 {
		e = 1
	}
	if floor := (1 - e) * h.dur; exposed < floor {
		exposed = floor
	}
	if exposed < 0 {
		exposed = 0
	}
	p.rt.clocks[p.id] += exposed
	p.rt.commExposed[p.id] += exposed
	overlapped := h.dur - exposed
	if overlapped < 0 {
		overlapped = 0
	}
	p.rt.commOverlapped[p.id] += overlapped
	p.rt.traceEmit(trace.KindWait, p.id, now, exposed, h.name, h.words, h.remote)
	if h.seq > 0 {
		p.rt.nbAppliers[p.id].waitFor(h.seq)
	}
	if h.staging != nil {
		p.rt.putPooled(h.staging)
		h.staging = nil
	}
	if h.stagingWords > 0 {
		p.Counters().Free(h.stagingWords)
	}
	h.waited = true
	p.rt.nbOutstanding[p.id]--
}

// WaitAll waits every handle in order; nil handles are skipped.
func (p *Proc) WaitAll(hs ...*Handle) {
	for _, h := range hs {
		h.Wait(p)
	}
}
