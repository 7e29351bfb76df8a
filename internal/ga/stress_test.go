package ga

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"fourindex/internal/tile"
)

// TestStressConcurrentAccSingleTile hammers atomic accumulation from
// every process into one shared tile, interleaved with barriers, and
// checks the result is the exact deterministic sum. Run under
// `go test -race -count=5` in CI, this exercises the per-tile write
// locks, the counter atomics, and the clock barrier together — the
// machinery the runtime's cost/execute equivalence rests on.
func TestStressConcurrentAccSingleTile(t *testing.T) {
	const (
		procs  = 8
		rounds = 50
		dim    = 6
	)
	rt, err := NewRuntime(Config{Procs: procs, Mode: Execute})
	if err != nil {
		t.Fatal(err)
	}
	// One dim x dim tile: every Acc from every process contends for the
	// same tile lock.
	a, err := rt.CreateTiled("hot", grids(dim, dim, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.DestroyTiled(a)

	zero := make([]float64, dim*dim)
	if err := rt.Parallel(func(p *Proc) {
		if p.ID() == 0 {
			p.PutT(a, zero, 0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}

	if err := rt.Parallel(func(p *Proc) {
		buf := p.MustAllocLocal(dim * dim)
		for i := range buf.Data {
			buf.Data[i] = 1
		}
		for r := 0; r < rounds; r++ {
			p.AccT(a, float64(p.ID()+1), buf.Data, 0, 0)
			if r%10 == 0 {
				p.Barrier()
			}
		}
		p.FreeLocal(buf)
	}); err != nil {
		t.Fatal(err)
	}

	// Sum over processes of rounds * (id+1): deterministic regardless
	// of interleaving.
	want := 0.0
	for id := 1; id <= procs; id++ {
		want += float64(rounds * id)
	}
	for i, v := range a.SnapshotTiles() {
		if v != want {
			t.Fatalf("element %d = %v, want %v", i, v, want)
		}
	}
}

// TestStressBarrierPoisonUnderLoad panics one process while the others
// are looping through barriers and accumulations, then reuses the
// runtime. The poisoned barrier must release every sibling (no
// deadlock), surface exactly the original panic value, and re-arm for
// the next region.
func TestStressBarrierPoisonUnderLoad(t *testing.T) {
	const procs = 8
	rt, err := NewRuntime(Config{Procs: procs, Mode: Execute})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rt.CreateTiled("poison", grids(4, 2, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.DestroyTiled(a)

	for trial := 0; trial < 3; trial++ {
		var released atomic.Int64
		err := rt.Parallel(func(p *Proc) {
			defer released.Add(1)
			buf := p.MustAllocLocal(4)
			defer p.FreeLocal(buf)
			for r := 0; ; r++ {
				p.AccT(a, 1, buf.Data, 0, 0)
				if p.ID() == trial && r == 2 {
					panic(fmt.Errorf("proc %d gives up", p.ID()))
				}
				p.Barrier()
			}
		})
		if err == nil {
			t.Fatalf("trial %d: Parallel returned nil, want poisoned-region error", trial)
		}
		if !strings.Contains(err.Error(), "gives up") {
			t.Fatalf("trial %d: error %v does not carry the panic value", trial, err)
		}
		if got := released.Load(); got != procs {
			t.Fatalf("trial %d: %d of %d processes released from poisoned barrier", trial, got, procs)
		}

		// The barrier must be re-armed: a full region with barriers
		// runs to completion afterwards.
		if err := rt.Parallel(func(p *Proc) {
			p.Barrier()
			p.Barrier()
		}); err != nil {
			t.Fatalf("trial %d: region after poison failed: %v", trial, err)
		}
	}
}

// TestStressFrozenTileLockFreeReads writes one hot tile inside a
// region, freezes the tensor at the following sync point, and then has
// every process read that same tile in a tight loop from a second
// region. Frozen tensors take the lock-free GetT fast path, so this is
// exactly the schedule shape (producer region -> GA_Sync -> consumer
// region) whose safety rests on the region boundary's happens-before
// edge. Run under `go test -race -count=5` in CI.
func TestStressFrozenTileLockFreeReads(t *testing.T) {
	const (
		procs  = 8
		rounds = 200
		dim    = 6
	)
	rt, err := NewRuntime(Config{Procs: procs, Mode: Execute})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rt.CreateTiled("B", grids(dim, dim, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.DestroyTiled(a)

	want := make([]float64, dim*dim)
	for i := range want {
		want[i] = float64(i + 1)
	}
	if err := rt.Parallel(func(p *Proc) {
		if p.ID() == 0 {
			p.PutT(a, want, 0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	a.Freeze()

	var reads atomic.Int64
	if err := rt.Parallel(func(p *Proc) {
		buf := p.MustAllocLocal(dim * dim)
		defer p.FreeLocal(buf)
		for r := 0; r < rounds; r++ {
			p.GetT(a, buf.Data, 0, 0)
			for i, v := range buf.Data {
				if v != want[i] {
					panic(fmt.Errorf("proc %d round %d: element %d = %v, want %v",
						p.ID(), r, i, v, want[i]))
				}
			}
			reads.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := reads.Load(); got != procs*rounds {
		t.Fatalf("completed %d reads, want %d", got, procs*rounds)
	}
}

// TestStressLocalLedgerBalanced checks that the concurrent stress
// leaves every per-process local-memory ledger at zero — the invariant
// gadiscipline enforces statically and the runtime tracks dynamically.
func TestStressLocalLedgerBalanced(t *testing.T) {
	const procs = 6
	rt, err := NewRuntime(Config{Procs: procs, Mode: Execute, LocalMemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(func(p *Proc) {
		for i := 0; i < 100; i++ {
			b, err := p.AllocLocal(128)
			if err != nil {
				panic(err) // 128 words fit well under the 1 MiB cap
			}
			p.FreeLocal(b)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < procs; pid++ {
		if cur := rt.ProcCounters(pid).Current(); cur != 0 {
			t.Errorf("process %d local ledger = %d elements, want 0", pid, cur)
		}
	}
}

// TestStressConcurrentNbPrefetch exercises the nonblocking path the way
// the schedules use it, under maximal contention: every process
// double-buffer prefetches all tiles of a shared frozen input with
// NbGetT while streaming NbAccT updates at a single hot output tile
// through a two-deep write window. Run under the race detector, this
// covers the worker-chain FIFO, handle-owned staging, the frozen
// lock-free read inside a deferred get, and the pooled staging buffers
// racing with AllocLocal.
func TestStressConcurrentNbPrefetch(t *testing.T) {
	const (
		procs  = 8
		rounds = 20
		nt     = 4
		dim    = 5
	)
	rt, err := NewRuntime(Config{Procs: procs, Mode: Execute, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	g := tile.NewGrid(nt*dim, dim)
	in, err := rt.CreateTiled("in", []tile.Grid{g, g}, nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.DestroyTiled(in)
	out, err := rt.CreateTiled("out", []tile.Grid{g, g}, nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.DestroyTiled(out)

	words := dim * dim
	if err := rt.Parallel(func(p *Proc) {
		buf := p.MustAllocLocal(int64(words))
		defer p.FreeLocal(buf)
		for ti := 0; ti < nt; ti++ {
			for tj := 0; tj < nt; tj++ {
				if workOwner := (ti*nt + tj) % procs; workOwner != p.ID() {
					continue
				}
				for i := range buf.Data {
					buf.Data[i] = float64(ti*nt + tj)
				}
				p.NbPutT(in, buf.Data, ti, tj).Wait(p)
				zero := make([]float64, words)
				p.PutT(out, zero, ti, tj)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	in.Freeze()

	// Each round every process sweeps all tiles with a two-slot prefetch
	// pipeline and accumulates each tile's value into out[0,0].
	if err := rt.Parallel(func(p *Proc) {
		tmp := p.MustAllocLocal(int64(2 * words))
		defer p.FreeLocal(tmp)
		acc := p.MustAllocLocal(int64(words))
		defer p.FreeLocal(acc)
		issue := func(k int) *Handle {
			ti, tj := k/nt, k%nt
			half := tmp.Data[(k%2)*words : (k%2)*words+words]
			return p.NbGetT(in, half, ti, tj)
		}
		var wprev *Handle
		for r := 0; r < rounds; r++ {
			h := issue(0)
			for k := 0; k < nt*nt; k++ {
				var next *Handle
				if k+1 < nt*nt {
					next = issue(k + 1)
				}
				h.Wait(p)
				got := tmp.Data[(k%2)*words]
				if got != float64(k) {
					panic(fmt.Errorf("proc %d round %d tile %d: prefetched %v, want %d", p.ID(), r, k, got, k))
				}
				for i := range acc.Data {
					acc.Data[i] = got
				}
				wprev.Wait(p)
				wprev = p.NbAccT(out, 1, acc.Data, 0, 0)
				h = next
			}
		}
		wprev.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}

	// Every process added sum(0..nt*nt-1) per round into out[0,0].
	want := 0.0
	for k := 0; k < nt*nt; k++ {
		want += float64(k)
	}
	want *= procs * rounds
	buf := make([]float64, words)
	if err := rt.Parallel(func(p *Proc) {
		if p.ID() == 0 {
			p.GetT(out, buf, 0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != want {
			t.Fatalf("out[0,0][%d] = %v, want %v", i, v, want)
		}
	}
}
