// Package metrics provides thread-safe counters for the quantities the
// paper's analysis reasons about: floating-point operations, bytes moved
// between levels of the memory hierarchy, and memory high-water marks.
//
// Two memory-hierarchy levels matter for the four-index transform
// (Section 3 of the paper):
//
//   - LevelDisk: disk (slow) <-> aggregate global memory (fast),
//   - LevelGlobal: global memory (slow) <-> process-local memory (fast).
//
// Counters are deliberately simple monotonic accumulators so that a
// schedule executed in "cost mode" (no real arithmetic) and in "execute
// mode" (real doubles) report identical data-movement numbers.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Level identifies a boundary in the two-level memory hierarchy
// abstraction used throughout the paper.
type Level int

const (
	// LevelDisk is the disk <-> aggregate-global-memory boundary.
	LevelDisk Level = iota
	// LevelGlobal is the global-memory <-> local-memory boundary,
	// i.e. inter-node communication in a distributed system.
	LevelGlobal
	// LevelIntra records get/put traffic whose source and destination
	// live on the same node (a local copy, not communication). It is
	// kept separate so that LevelGlobal counts true inter-node volume
	// while LevelGlobal+LevelIntra gives the two-level-model I/O that
	// the paper's bounds are stated in.
	LevelIntra
	numLevels
)

// String returns a short human-readable name for the level.
func (l Level) String() string {
	switch l {
	case LevelDisk:
		return "disk<->global"
	case LevelGlobal:
		return "global<->local"
	case LevelIntra:
		return "intra-node"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Counters accumulates flop and data-movement totals. The zero value is
// ready to use. All methods are safe for concurrent use.
type Counters struct {
	flops atomic.Int64

	loads  [numLevels]atomic.Int64 // elements moved fast-ward
	stores [numLevels]atomic.Int64 // elements moved slow-ward
	msgs   [numLevels]atomic.Int64 // discrete transfer operations

	retries atomic.Int64 // fault-injection retries absorbed by backoff

	current atomic.Int64 // currently allocated elements (ledger)
	peak    atomic.Int64 // high-water mark of current
}

// AddFlops records n floating-point operations.
func (c *Counters) AddFlops(n int64) { c.flops.Add(n) }

// Flops returns the total recorded floating-point operations.
func (c *Counters) Flops() int64 { return c.flops.Load() }

// AddLoad records a transfer of n elements from the slow side to the
// fast side of level l, as one message.
func (c *Counters) AddLoad(l Level, n int64) {
	c.loads[l].Add(n)
	c.msgs[l].Add(1)
}

// AddStore records a transfer of n elements from the fast side to the
// slow side of level l, as one message.
func (c *Counters) AddStore(l Level, n int64) {
	c.stores[l].Add(n)
	c.msgs[l].Add(1)
}

// Loads returns the elements loaded (slow -> fast) across level l.
func (c *Counters) Loads(l Level) int64 { return c.loads[l].Load() }

// Stores returns the elements stored (fast -> slow) across level l.
func (c *Counters) Stores(l Level) int64 { return c.stores[l].Load() }

// Traffic returns total elements moved in both directions across level l.
func (c *Counters) Traffic(l Level) int64 {
	return c.loads[l].Load() + c.stores[l].Load()
}

// Messages returns the number of discrete transfers across level l.
func (c *Counters) Messages(l Level) int64 { return c.msgs[l].Load() }

// AddRetry records one retried operation: a transient injected fault
// absorbed by the runtime's retry-with-backoff path.
func (c *Counters) AddRetry() { c.retries.Add(1) }

// Retries returns the total operations retried after transient faults.
func (c *Counters) Retries() int64 { return c.retries.Load() }

// Alloc records an allocation of n elements in the tracked memory and
// updates the high-water mark. The ledger only rises in Alloc, so the
// largest value any Alloc leaves it at is its exact high-water mark,
// even when several goroutines allocate at once.
func (c *Counters) Alloc(n int64) {
	cur := c.current.Add(n)
	for {
		pk := c.peak.Load()
		if cur <= pk || c.peak.CompareAndSwap(pk, cur) {
			return
		}
	}
}

// Free records a release of n elements. It panics if the ledger would go
// negative, which always indicates a double-free bug in a schedule.
func (c *Counters) Free(n int64) {
	if cur := c.current.Add(-n); cur < 0 {
		panic(fmt.Sprintf("metrics: memory ledger negative (%d after freeing %d)", cur, n))
	}
}

// Current returns the currently allocated elements.
func (c *Counters) Current() int64 { return c.current.Load() }

// Peak returns the high-water mark of allocated elements.
func (c *Counters) Peak() int64 { return c.peak.Load() }

// Reset zeroes every counter.
func (c *Counters) Reset() {
	c.flops.Store(0)
	c.retries.Store(0)
	for i := range c.loads {
		c.loads[i].Store(0)
		c.stores[i].Store(0)
		c.msgs[i].Store(0)
	}
	c.current.Store(0)
	c.peak.Store(0)
}

// Snapshot is an immutable copy of a Counters state.
type Snapshot struct {
	Flops        int64
	DiskTraffic  int64
	CommTraffic  int64
	DiskMessages int64
	CommMessages int64
	PeakElements int64
	Retries      int64
}

// Snapshot captures the current totals.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Flops:        c.Flops(),
		DiskTraffic:  c.Traffic(LevelDisk),
		CommTraffic:  c.Traffic(LevelGlobal),
		DiskMessages: c.Messages(LevelDisk),
		CommMessages: c.Messages(LevelGlobal),
		PeakElements: c.Peak(),
		Retries:      c.Retries(),
	}
}

// String formats the snapshot compactly.
func (s Snapshot) String() string {
	return fmt.Sprintf("flops=%d disk=%d comm=%d peak=%d", s.Flops, s.DiskTraffic, s.CommTraffic, s.PeakElements)
}
