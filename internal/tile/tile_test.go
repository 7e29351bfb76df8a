package tile

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(10, 3)
	if g.NumTiles() != 4 {
		t.Fatalf("NumTiles = %d, want 4", g.NumTiles())
	}
	lo, hi := g.Bounds(0)
	if lo != 0 || hi != 3 {
		t.Errorf("Bounds(0) = (%d,%d), want (0,3)", lo, hi)
	}
	lo, hi = g.Bounds(3)
	if lo != 9 || hi != 10 {
		t.Errorf("Bounds(3) = (%d,%d), want (9,10) ragged tail", lo, hi)
	}
	if g.Width(3) != 1 {
		t.Errorf("Width(3) = %d, want 1", g.Width(3))
	}
	if g.TileOf(9) != 3 || g.TileOf(2) != 0 || g.TileOf(3) != 1 {
		t.Error("TileOf misassigns indices")
	}
}

func TestGridClampsWideTile(t *testing.T) {
	g := NewGrid(5, 100)
	if g.T != 5 || g.NumTiles() != 1 {
		t.Errorf("grid = %+v, want single tile of width 5", g)
	}
}

func TestGridEmpty(t *testing.T) {
	g := NewGrid(0, 4)
	if g.NumTiles() != 0 {
		t.Errorf("NumTiles = %d, want 0", g.NumTiles())
	}
}

func TestGridPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative extent": func() { NewGrid(-1, 2) },
		"zero tile":       func() { NewGrid(5, 0) },
		"bounds range":    func() { NewGrid(10, 3).Bounds(4) },
		"tileof range":    func() { NewGrid(10, 3).TileOf(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: bounds partition [0, N) exactly, and TileOf is consistent.
func TestQuickGridPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		tw := 1 + rng.Intn(50)
		g := NewGrid(n, tw)
		next := 0
		for tt := 0; tt < g.NumTiles(); tt++ {
			lo, hi := g.Bounds(tt)
			if lo != next || hi <= lo {
				return false
			}
			for i := lo; i < hi; i++ {
				if g.TileOf(i) != tt {
					return false
				}
			}
			next = hi
		}
		return next == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDistRoundRobin(t *testing.T) {
	d := NewDist(10, 3, RoundRobin, 0)
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	for tt, w := range want {
		if got := d.Owner(tt); got != w {
			t.Errorf("Owner(%d) = %d, want %d", tt, got, w)
		}
	}
	counts := d.Counts()
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Errorf("Counts = %v", counts)
	}
}

func TestDistBlock(t *testing.T) {
	d := NewDist(10, 3, Block, 0)
	// per = ceil(10/3) = 4 => tiles 0-3 -> 0, 4-7 -> 1, 8-9 -> 2.
	if d.Owner(0) != 0 || d.Owner(3) != 0 || d.Owner(4) != 1 || d.Owner(8) != 2 {
		t.Errorf("Block owners wrong: %v", d.Counts())
	}
}

func TestDistBlockCyclic(t *testing.T) {
	d := NewDist(12, 2, BlockCyclic, 3)
	// blocks of 3: [0-2]->0, [3-5]->1, [6-8]->0, [9-11]->1.
	for tt := 0; tt < 12; tt++ {
		want := (tt / 3) % 2
		if got := d.Owner(tt); got != want {
			t.Errorf("Owner(%d) = %d, want %d", tt, got, want)
		}
	}
}

func TestDistDefaultsBlockSize(t *testing.T) {
	d := NewDist(4, 2, BlockCyclic, 0)
	// blockSize defaults to 1 => round robin behaviour.
	if d.Owner(0) != 0 || d.Owner(1) != 1 || d.Owner(2) != 0 {
		t.Error("BlockCyclic with default block size should be cyclic")
	}
}

// TestDistOwned checks that Owned lists exactly the tiles Owner assigns
// to each process, in increasing order, for every policy.
func TestDistOwned(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, Block, BlockCyclic} {
		for _, procs := range []int{1, 2, 3, 7} {
			for _, n := range []int{0, 1, 5, 12, 23} {
				for _, bs := range []int{1, 3} {
					d := NewDist(n, procs, pol, bs)
					for p := 0; p < procs; p++ {
						var got, want []int
						first, size, stride := d.Owned(p)
						for b := first; b < n; b += stride {
							for tt := b; tt < min(b+size, n); tt++ {
								got = append(got, tt)
							}
						}
						for tt := 0; tt < n; tt++ {
							if d.Owner(tt) == p {
								want = append(want, tt)
							}
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%v n=%d P=%d bs=%d: Owned(%d) lists %v, Owner gives %v", pol, n, procs, bs, p, got, want)
						}
					}
				}
			}
		}
	}
}

func TestImbalance(t *testing.T) {
	d := NewDist(9, 3, RoundRobin, 0)
	if got := d.Imbalance(); got != 1 {
		t.Errorf("Imbalance = %v, want 1 (perfectly divisible)", got)
	}
	d2 := NewDist(10, 3, Block, 0)
	// Block: counts 4,4,2 -> 4 / (10/3) = 1.2.
	if got := d2.Imbalance(); got < 1.19 || got > 1.21 {
		t.Errorf("Imbalance = %v, want 1.2", got)
	}
	empty := NewDist(0, 3, RoundRobin, 0)
	if empty.Imbalance() != 1 {
		t.Error("empty distribution imbalance should be 1")
	}
}

func TestDistPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero procs":     func() { NewDist(4, 0, RoundRobin, 0) },
		"negative tiles": func() { NewDist(-1, 2, RoundRobin, 0) },
		"owner range":    func() { NewDist(4, 2, RoundRobin, 0).Owner(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || Block.String() != "block" || BlockCyclic.String() != "block-cyclic" {
		t.Error("Policy.String() wrong")
	}
	if Policy(7).String() != "Policy(7)" {
		t.Error("unknown policy String() wrong")
	}
}

// Property: every tile has exactly one owner in range, for all policies.
func TestQuickOwnersInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nt := rng.Intn(100)
		p := 1 + rng.Intn(10)
		pol := Policy(rng.Intn(3))
		d := NewDist(nt, p, pol, 1+rng.Intn(4))
		total := 0
		for _, c := range d.Counts() {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == nt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
