package metrics

import (
	"sync"
	"testing"
)

func TestFlops(t *testing.T) {
	var c Counters
	c.AddFlops(10)
	c.AddFlops(32)
	if got := c.Flops(); got != 42 {
		t.Errorf("Flops() = %d, want 42", got)
	}
}

func TestLoadsStoresPerLevel(t *testing.T) {
	var c Counters
	c.AddLoad(LevelDisk, 100)
	c.AddLoad(LevelDisk, 50)
	c.AddStore(LevelDisk, 25)
	c.AddLoad(LevelGlobal, 7)

	if got := c.Loads(LevelDisk); got != 150 {
		t.Errorf("Loads(disk) = %d, want 150", got)
	}
	if got := c.Stores(LevelDisk); got != 25 {
		t.Errorf("Stores(disk) = %d, want 25", got)
	}
	if got := c.Traffic(LevelDisk); got != 175 {
		t.Errorf("Traffic(disk) = %d, want 175", got)
	}
	if got := c.Traffic(LevelGlobal); got != 7 {
		t.Errorf("Traffic(global) = %d, want 7", got)
	}
	if got := c.Messages(LevelDisk); got != 3 {
		t.Errorf("Messages(disk) = %d, want 3", got)
	}
	if got := c.Messages(LevelGlobal); got != 1 {
		t.Errorf("Messages(global) = %d, want 1", got)
	}
}

func TestMemoryLedgerPeak(t *testing.T) {
	var c Counters
	c.Alloc(100)
	c.Alloc(200)
	c.Free(150)
	c.Alloc(50)
	if got := c.Current(); got != 200 {
		t.Errorf("Current() = %d, want 200", got)
	}
	if got := c.Peak(); got != 300 {
		t.Errorf("Peak() = %d, want 300", got)
	}
}

func TestFreeNegativePanics(t *testing.T) {
	var c Counters
	c.Alloc(5)
	defer func() {
		if recover() == nil {
			t.Error("Free below zero did not panic")
		}
	}()
	c.Free(6)
}

func TestReset(t *testing.T) {
	var c Counters
	c.AddFlops(5)
	c.AddLoad(LevelDisk, 5)
	c.Alloc(5)
	c.Reset()
	if c.Flops() != 0 || c.Traffic(LevelDisk) != 0 || c.Peak() != 0 || c.Current() != 0 {
		t.Errorf("Reset left state: %+v", c.Snapshot())
	}
}

func TestConcurrentCounting(t *testing.T) {
	var c Counters
	const workers, per, maxWords = 8, 1000, 7
	var wg sync.WaitGroup
	// observed[w] is the largest ledger value worker w read right after
	// one of its own allocations.
	observed := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddFlops(1)
				c.AddLoad(LevelGlobal, 2)
				n := int64(i%maxWords + 1)
				c.Alloc(n)
				observed[w] = max(observed[w], c.Current())
				c.Free(n)
			}
		}(w)
	}
	wg.Wait()
	peak := c.Peak()
	for w, obs := range observed {
		if peak < obs {
			t.Errorf("Peak() = %d below worker %d's observed Current() %d", peak, w, obs)
		}
	}
	if peak > workers*maxWords {
		t.Errorf("Peak() = %d above the %d words all workers can hold at once", peak, workers*maxWords)
	}
	if got := c.Flops(); got != workers*per {
		t.Errorf("Flops() = %d, want %d", got, workers*per)
	}
	if got := c.Loads(LevelGlobal); got != 2*workers*per {
		t.Errorf("Loads = %d, want %d", got, 2*workers*per)
	}
	if got := c.Current(); got != 0 {
		t.Errorf("Current() = %d, want 0", got)
	}
}

func TestLevelString(t *testing.T) {
	if LevelDisk.String() != "disk<->global" {
		t.Errorf("LevelDisk.String() = %q", LevelDisk.String())
	}
	if LevelGlobal.String() != "global<->local" {
		t.Errorf("LevelGlobal.String() = %q", LevelGlobal.String())
	}
	if Level(9).String() != "Level(9)" {
		t.Errorf("Level(9).String() = %q", Level(9).String())
	}
}

func TestSnapshot(t *testing.T) {
	var c Counters
	c.AddFlops(3)
	c.AddLoad(LevelDisk, 10)
	c.AddStore(LevelGlobal, 4)
	c.Alloc(77)
	s := c.Snapshot()
	if s.Flops != 3 || s.DiskTraffic != 10 || s.CommTraffic != 4 || s.PeakElements != 77 {
		t.Errorf("Snapshot = %+v", s)
	}
	if s.String() == "" {
		t.Error("Snapshot.String() empty")
	}
}
