package ga

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"fourindex/internal/cluster"
	"fourindex/internal/tile"
)

// nbRuntime builds a runtime with the nonblocking path enabled.
func nbRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	cfg.Overlap = true
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestNbDegradesWhenOverlapOff pins the degrade contract: with
// Config.Overlap false the nonblocking verbs complete at issue and hand
// back a shared no-op handle, so a schedule written against the
// nonblocking API runs identically to the blocking runtime.
func TestNbDegradesWhenOverlapOff(t *testing.T) {
	rt, err := NewRuntime(Config{Procs: 1, Mode: Execute})
	if err != nil {
		t.Fatal(err)
	}
	g := tile.NewGrid(4, 4)
	a, err := rt.CreateTiled("a", []tile.Grid{g, g}, nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.DestroyTiled(a)

	if err := rt.Parallel(func(p *Proc) {
		src := make([]float64, 16)
		for i := range src {
			src[i] = float64(i)
		}
		h := p.NbPutT(a, src, 0, 0)
		if !h.noop {
			t.Error("overlap-off NbPutT returned a live handle")
		}
		// Degraded writes have completed at issue: reusing (and even
		// rewriting) the source buffer must not disturb the tile.
		for i := range src {
			src[i] = -1
		}
		dst := make([]float64, 16)
		hg := p.NbGetT(a, dst, 0, 0)
		if !hg.noop {
			t.Error("overlap-off NbGetT returned a live handle")
		}
		for i, v := range dst {
			if v != float64(i) {
				t.Fatalf("dst[%d] = %v, want %v", i, v, float64(i))
			}
		}
		// No-op handles tolerate repeated waits from any process.
		p.WaitAll(h, hg, nil)
		h.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNbCostModelMaxRule pins the overlap clock rule: the wait charges
// only the exposed remainder of the in-flight time, so clock advance
// over an issue..wait window is max(compute, comm), not their sum.
func TestNbCostModelMaxRule(t *testing.T) {
	run, err := cluster.SystemA().Configure(1, 1)
	if err != nil {
		t.Fatal(err)
	}

	// One remote-free single-proc runtime per scenario so Elapsed reads
	// cleanly. The tile transfer has a fixed simulated duration dur.
	build := func(eff float64) (*Runtime, *TiledArray) {
		rt, err := NewRuntime(Config{Procs: 1, Mode: Cost, Run: &run, Overlap: true, OverlapEfficiency: eff})
		if err != nil {
			t.Fatal(err)
		}
		g := tile.NewGrid(64, 64)
		a, err := rt.CreateTiled("a", []tile.Grid{g, g}, nil, tile.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Parallel(func(p *Proc) { p.PutT(a, nil, 0, 0) }); err != nil {
			t.Fatal(err)
		}
		return rt, a
	}

	// Scenario 1: wait immediately after issue — the whole transfer is
	// exposed, nothing is hidden. The setup PutT was blocking and counts
	// as exposed too, so measure the get against that baseline.
	rt1, a1 := build(0)
	putExposed := rt1.CommExposedSeconds()
	if err := rt1.Parallel(func(p *Proc) {
		p.NbGetT(a1, nil, 0, 0).Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
	dur := rt1.CommExposedSeconds() - putExposed
	if dur <= 0 {
		t.Fatalf("immediate wait exposed %v, want > 0", dur)
	}
	if ov := rt1.CommOverlapSeconds(); ov != 0 {
		t.Errorf("immediate wait hid %v s, want 0", ov)
	}

	// Scenario 2: enough compute between issue and wait to cover the
	// transfer — the wait charges ~nothing and the whole duration is
	// counted as overlapped. Elapsed is the compute time alone (max
	// rule), not compute + dur (sum rule).
	rt2, a2 := build(0)
	before := rt2.Elapsed()
	// Single-proc runtime, but guard the capture so the measurement
	// stays safe if the scenario ever runs wider.
	var mu sync.Mutex
	var computeSec float64
	if err := rt2.Parallel(func(p *Proc) {
		h := p.NbGetT(a2, nil, 0, 0)
		start := rt2.clocks[0]
		for rt2.clocks[0]-start < 10*dur {
			p.Compute(1 << 20)
		}
		mu.Lock()
		computeSec = rt2.clocks[0] - start
		mu.Unlock()
		h.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
	if exp := rt2.CommExposedSeconds() - putExposed; exp > 1e-12 {
		t.Errorf("fully-hidden transfer exposed %v s, want ~0", exp)
	}
	if ov := rt2.CommOverlapSeconds(); ov < 0.99*dur || ov > 1.01*dur {
		t.Errorf("overlapped %v s, want ~%v", ov, dur)
	}
	if got, want := rt2.Elapsed()-before, computeSec; got > want*1.000001+1e-12 {
		t.Errorf("elapsed %v, want max rule ~%v (sum rule would be %v)", got, want, want+dur)
	}

	// Scenario 3: OverlapEfficiency 0.25 floors the exposed charge at
	// 75% of the duration no matter how much compute intervenes.
	rt3, a3 := build(0.25)
	if err := rt3.Parallel(func(p *Proc) {
		h := p.NbGetT(a3, nil, 0, 0)
		start := rt3.clocks[0]
		for rt3.clocks[0]-start < 10*dur {
			p.Compute(1 << 20)
		}
		h.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
	if exp, want := rt3.CommExposedSeconds()-putExposed, 0.75*dur; exp < 0.99*want || exp > 1.01*want {
		t.Errorf("efficiency 0.25 exposed %v s, want ~%v", exp, want)
	}
}

// TestNbChannelSerialisesTransfers pins the per-process comm channel:
// two back-to-back nonblocking gets queue on the same channel, so the
// second's arrival (and hence an immediate wait) includes the first's
// in-flight time.
func TestNbChannelSerialisesTransfers(t *testing.T) {
	run, err := cluster.SystemA().Configure(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(Config{Procs: 1, Mode: Cost, Run: &run, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	g := tile.NewGrid(64, 64)
	a, err := rt.CreateTiled("a", []tile.Grid{g, g}, nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(func(p *Proc) { p.PutT(a, nil, 0, 0) }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(func(p *Proc) {
		h1 := p.NbGetT(a, nil, 0, 0)
		h2 := p.NbGetT(a, nil, 0, 0)
		if h2.arrival <= h1.arrival {
			t.Errorf("second transfer arrives at %v, first at %v; channel did not serialise", h2.arrival, h1.arrival)
		}
		if want := 2 * h1.dur; h2.arrival < 0.99*want {
			t.Errorf("second arrival %v, want ~%v (queued behind the first)", h2.arrival, want)
		}
		p.WaitAll(h1, h2)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNbExecuteFIFOApply checks deferred writes land in per-process
// program order and that Put/Acc staging frees the caller's buffer at
// issue: the source is clobbered immediately after issue and the tile
// still receives the staged values, in order.
func TestNbExecuteFIFOApply(t *testing.T) {
	rt := nbRuntime(t, Config{Procs: 1, Mode: Execute})
	g := tile.NewGrid(4, 4)
	a, err := rt.CreateTiled("a", []tile.Grid{g, g}, nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.DestroyTiled(a)

	if err := rt.Parallel(func(p *Proc) {
		buf := make([]float64, 16)
		for i := range buf {
			buf[i] = 2
		}
		h1 := p.NbPutT(a, buf, 0, 0)
		for i := range buf { // staged: safe to reuse before Wait
			buf[i] = 3
		}
		h2 := p.NbAccT(a, 10, buf, 0, 0)
		for i := range buf {
			buf[i] = -99
		}
		p.WaitAll(h1, h2)

		dst := make([]float64, 16)
		hg := p.NbGetT(a, dst, 0, 0)
		hg.Wait(p)
		for i, v := range dst {
			if v != 32 { // put 2, then += 10*3: order matters
				t.Fatalf("dst[%d] = %v, want 32 (FIFO put-then-acc)", i, v)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNbStagingLedger checks the staging buffer of an in-flight NbPutT
// is charged to the issuing process's local-memory ledger until Wait.
func TestNbStagingLedger(t *testing.T) {
	rt := nbRuntime(t, Config{Procs: 1, Mode: Cost})
	g := tile.NewGrid(8, 8)
	a, err := rt.CreateTiled("a", []tile.Grid{g, g}, nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(func(p *Proc) {
		base := p.Counters().Current()
		h := p.NbPutT(a, nil, 0, 0)
		if got := p.Counters().Current() - base; got != 64 {
			t.Errorf("in-flight staging charge %d words, want 64", got)
		}
		h.Wait(p)
		if got := p.Counters().Current() - base; got != 0 {
			t.Errorf("post-wait staging charge %d words, want 0", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNbHandleLifecyclePanics pins the misuse panics: waiting twice,
// waiting another process's handle, and leaving a handle unwaited at
// region exit.
func TestNbHandleLifecyclePanics(t *testing.T) {
	rt := nbRuntime(t, Config{Procs: 2, Mode: Cost})
	g := tile.NewGrid(4, 4)
	a, err := rt.CreateTiled("a", []tile.Grid{g, g}, nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(func(p *Proc) { p.PutT(a, nil, 0, 0) }); err != nil {
		t.Fatal(err)
	}

	err = rt.Parallel(func(p *Proc) {
		h := p.NbGetT(a, nil, 0, 0)
		h.Wait(p)
		h.Wait(p)
	})
	if err == nil || !strings.Contains(err.Error(), "waited twice") {
		t.Errorf("double wait: err = %v, want 'waited twice'", err)
	}

	// Handles are never reused: a handle waited again after more than
	// one arena chunk of later handles still remembers its first Wait.
	err = rt.Parallel(func(p *Proc) {
		first := p.NbGetT(a, nil, 0, 0)
		first.Wait(p)
		for i := 0; i < 2*arenaMaxChunk; i++ {
			p.NbGetT(a, nil, 0, 0).Wait(p)
		}
		first.Wait(p)
	})
	if err == nil || !strings.Contains(err.Error(), "waited twice") {
		t.Errorf("wait after %d later handles: err = %v, want 'waited twice'", 2*arenaMaxChunk, err)
	}

	err = rt.Parallel(func(p *Proc) {
		h := p.NbGetT(a, nil, 0, 0)
		defer h.Wait(p)
		if p.ID() == 0 {
			(&Handle{proc: 1}).Wait(p)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "issued by process") {
		t.Errorf("cross-process wait: err = %v, want issuing-process panic", err)
	}

	err = rt.Parallel(func(p *Proc) {
		p.NbGetT(a, nil, 0, 0) // never waited
	})
	if err == nil || !strings.Contains(err.Error(), "unwaited at region exit") {
		t.Errorf("unwaited handle: err = %v, want region-exit panic", err)
	}
}

// TestCostModeAllocsPerOp pins that a cost-mode transfer makes no heap
// object per operation: handles and buffer records come from
// per-process arenas, so a region of 1000 NbGetT and 1000 NbAccT, each
// with its Wait and an AllocLocal/FreeLocal pair, allocates at most once
// per 32 transfers (chunks and the region's own set-up).
func TestCostModeAllocsPerOp(t *testing.T) {
	run, err := cluster.SystemB().Configure(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := nbRuntime(t, Config{Procs: 2, Mode: Cost, Run: &run})
	g := tile.NewGrid(64, 8)
	a, err := rt.CreateTiled("a", []tile.Grid{g, g}, nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	const transfers = 2000 // 1000 NbGetT and 1000 NbAccT over both processes
	body := func(p *Proc) {
		for i := 0; i < transfers/4; i++ {
			ti, tj := i%8, (i/8)%8
			buf := p.MustAllocLocal(64)
			p.NbGetT(a, buf.Data, ti, tj).Wait(p)
			p.FreeLocal(buf)
			buf = p.MustAllocLocal(64)
			p.NbAccT(a, 1, buf.Data, ti, tj).Wait(p)
			p.FreeLocal(buf)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := rt.Parallel(body); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(transfers) / 32; allocs > limit {
		t.Errorf("%v allocations per region of %d transfers, want at most %v", allocs, transfers, limit)
	}
}

// TestFreeLocalTypedErrors pins the *BufferFreeError contract: double
// free, cross-process free and foreign buffers all fail with the typed
// error (surfaced through Parallel), each with its own reason.
func TestFreeLocalTypedErrors(t *testing.T) {
	cases := []struct {
		name   string
		body   func(p *Proc, foreign Buffer)
		reason string
		owner  int
	}{
		{
			name: "double free",
			body: func(p *Proc, _ Buffer) {
				b := p.MustAllocLocal(8)
				p.FreeLocal(b)
				p.FreeLocal(b)
			},
			reason: "double free", owner: 0,
		},
		{
			name: "cross-process free",
			body: func(p *Proc, foreign Buffer) {
				p.FreeLocal(foreign) // allocated by process 1
			},
			reason: "cross-process free", owner: 1,
		},
		{
			name: "foreign buffer",
			body: func(p *Proc, _ Buffer) {
				p.FreeLocal(Buffer{words: 4})
			},
			reason: "foreign buffer", owner: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := NewRuntime(Config{Procs: 2, Mode: Cost})
			if err != nil {
				t.Fatal(err)
			}
			// One writer behind the ID gate; guard the capture so the
			// handoff to the next region is explicitly synchronised.
			var mu sync.Mutex
			var foreign Buffer
			if err := rt.Parallel(func(p *Proc) {
				if p.ID() == 1 {
					mu.Lock()
					foreign = p.MustAllocLocal(8)
					mu.Unlock()
				}
			}); err != nil {
				t.Fatal(err)
			}
			err = rt.Parallel(func(p *Proc) {
				if p.ID() == 0 {
					tc.body(p, foreign)
				}
			})
			var fe *BufferFreeError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want *BufferFreeError", err)
			}
			if !strings.Contains(fe.Reason, tc.reason) {
				t.Errorf("reason = %q, want %q", fe.Reason, tc.reason)
			}
			if fe.Owner != tc.owner || fe.Proc != 0 {
				t.Errorf("owner/proc = %d/%d, want %d/0", fe.Owner, fe.Proc, tc.owner)
			}
		})
	}
}

// TestFreeLocalValidFreeStillWorks guards the happy path around the new
// checks: alloc/free cycles keep the ledger balanced.
func TestFreeLocalValidFreeStillWorks(t *testing.T) {
	rt, err := NewRuntime(Config{Procs: 2, Mode: Execute})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(func(p *Proc) {
		for i := 0; i < 4; i++ {
			b := p.MustAllocLocal(16)
			p.FreeLocal(b)
		}
		if cur := p.Counters().Current(); cur != 0 {
			t.Errorf("process %d ledger %d words after balanced frees, want 0", p.ID(), cur)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
