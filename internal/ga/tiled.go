package ga

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fourindex/internal/sym"
	"fourindex/internal/tile"
	"fourindex/internal/trace"
)

// TiledArray is an N-dimensional distributed tensor stored as whole
// data-tiles, the NWChem representation (Section 2.1): every dimension is
// blocked by a grid, tiles are linearised and distributed, and processes
// Get/Put/Acc entire tiles addressed by tile coordinates (Listing 4).
//
// Permutation symmetry is exploited at tile granularity: a symmetric
// index pair (d, d+1) stores only canonical tile blocks with
// t[d] >= t[d+1]; diagonal blocks (t[d] == t[d+1]) hold the full square
// with mirrored values, so within-tile data stays dense and GEMM-able.
// This is the classic block-triangular layout; it stores a factor
// ~(1 + 1/numTiles) more than the exact element-packed count in Table 1.
type TiledArray struct {
	rt    *Runtime
	Name  string
	Grids []tile.Grid
	// SymPairs lists index-dimension pairs (d, d+1) that are
	// permutation symmetric at block granularity.
	SymPairs [][2]int
	Dist     tile.Dist

	strides []int // canonical tile-id strides per dimension
	bytes   int64

	// stored flags which canonical tiles actually exist; nil means all
	// do. Tiles dropped by a sparsity filter (spatial symmetry in the
	// output tensor, Section 2.1) occupy no memory, read as zeros, and
	// move no data.
	stored []bool

	// onDisk marks a tensor that did not fit in aggregate memory and
	// was spilled to the file system (Config.AllowSpill). All of its
	// traffic is charged at disk bandwidth.
	onDisk bool

	data      []([]float64) // canonical tile id -> storage (Execute only)
	locks     []sync.RWMutex
	written   []atomic.Bool // Strict mode
	destroyed atomic.Bool

	// frozen marks the tensor immutable-after-sync: Freeze is called
	// from sequential code after the last producing Parallel region, so
	// the region boundary's happens-before edge publishes every tile to
	// every subsequent reader and GetT can skip the tile lock entirely.
	frozen atomic.Bool
}

// CreateTiled allocates a distributed tensor with one grid per dimension
// and the given symmetric dimension pairs. Each pair must be (d, d+1)
// with identical grids. Global-memory capacity is enforced; failures wrap
// ErrGlobalOOM.
func (rt *Runtime) CreateTiled(name string, grids []tile.Grid, symPairs [][2]int, pol tile.Policy) (*TiledArray, error) {
	return rt.CreateTiledSparse(name, grids, symPairs, pol, nil)
}

// CreateTiledSparse is CreateTiled with a tile sparsity filter: canonical
// tiles for which storedFn returns false are not stored at all — they
// consume no memory, all transfers to and from them are free no-ops, and
// reads return zeros. This models the structured block sparsity that
// spatial symmetry induces in the output tensor (Section 2.1). A nil
// storedFn keeps every tile.
func (rt *Runtime) CreateTiledSparse(name string, grids []tile.Grid, symPairs [][2]int, pol tile.Policy, storedFn func(coords []int) bool) (*TiledArray, error) {
	if len(grids) == 0 {
		return nil, fmt.Errorf("ga: tensor %q needs at least one dimension", name)
	}
	for _, p := range symPairs {
		if p[1] != p[0]+1 || p[0] < 0 || p[1] >= len(grids) {
			return nil, fmt.Errorf("ga: tensor %q has invalid symmetric pair %v", name, p)
		}
		if grids[p[0]] != grids[p[1]] {
			return nil, fmt.Errorf("ga: tensor %q symmetric pair %v has mismatched grids", name, p)
		}
	}
	a := &TiledArray{rt: rt, Name: name, Grids: grids, SymPairs: symPairs}

	// Canonical tile-id space: symmetric pairs collapse to a packed
	// pair index, other dims contribute their tile count.
	dims := a.canonicalDims()
	a.strides = make([]int, len(dims))
	total := 1
	for i := len(dims) - 1; i >= 0; i-- {
		a.strides[i] = total
		total *= dims[i]
	}

	// Total bytes: sum of stored canonical tile sizes.
	var words int64
	if storedFn != nil {
		a.stored = make([]bool, total)
	}
	a.forEachCanonical(func(coords []int) {
		if storedFn != nil {
			if !storedFn(coords) {
				return
			}
			a.stored[a.canonicalID(coords)] = true
		}
		words += int64(a.TileWords(coords))
	})
	a.bytes = words * 8

	lim := rt.effectiveGlobalMem()
	rt.mu.Lock()
	if lim > 0 && rt.globalBytes+a.bytes > lim {
		if !rt.cfg.AllowSpill {
			need := rt.globalBytes + a.bytes
			rt.mu.Unlock()
			return nil, fmt.Errorf("%w: tensor %q needs %d B live (capacity %d B)",
				ErrGlobalOOM, name, need, lim)
		}
		// Out-of-core fallback: the tensor lives on disk and charges
		// no aggregate memory.
		a.onDisk = true
	}
	if !a.onDisk {
		rt.globalBytes += a.bytes
		if rt.globalBytes > rt.peakGlobal {
			rt.peakGlobal = rt.globalBytes
		}
	}
	rt.liveArrays++
	rt.mu.Unlock()

	a.Dist = tile.NewDist(total, rt.cfg.Procs, pol, 1)
	if rt.cfg.Mode == Execute {
		a.data = make([][]float64, total)
		a.locks = make([]sync.RWMutex, total)
	}
	if rt.cfg.Strict {
		a.written = make([]atomic.Bool, total)
	}
	rt.traceEmit(trace.KindCreate, trace.SeqProc, rt.Elapsed(), 0, name, words, false)
	return a, nil
}

// canonicalDims returns the extent of each canonical tile coordinate:
// for the first dim of a symmetric pair, the packed pair-count; the
// second dim of a pair contributes 1 (absorbed); others their tile count.
func (a *TiledArray) canonicalDims() []int {
	dims := make([]int, len(a.Grids))
	for d, g := range a.Grids {
		dims[d] = g.NumTiles()
	}
	for _, p := range a.SymPairs {
		dims[p[0]] = sym.Pairs(a.Grids[p[0]].NumTiles())
		dims[p[1]] = 1
	}
	return dims
}

// forEachCanonical visits every canonical tile coordinate tuple.
func (a *TiledArray) forEachCanonical(f func(coords []int)) {
	nd := len(a.Grids)
	coords := make([]int, nd)
	var rec func(d int)
	rec = func(d int) {
		if d == nd {
			f(coords)
			return
		}
		if sp := a.symPairAt(d); sp >= 0 {
			for ti := 0; ti < a.Grids[d].NumTiles(); ti++ {
				for tj := 0; tj <= ti; tj++ {
					coords[d], coords[d+1] = ti, tj
					rec(d + 2)
				}
			}
			return
		}
		for t := 0; t < a.Grids[d].NumTiles(); t++ {
			coords[d] = t
			rec(d + 1)
		}
	}
	rec(0)
}

// symPairAt returns the pair index if dimension d starts a symmetric
// pair, else -1.
func (a *TiledArray) symPairAt(d int) int {
	for i, p := range a.SymPairs {
		if p[0] == d {
			return i
		}
	}
	return -1
}

// canonicalID maps canonical tile coordinates to the linear tile id.
// Coordinates of symmetric pairs must already satisfy t[d] >= t[d+1].
func (a *TiledArray) canonicalID(coords []int) int {
	if len(coords) != len(a.Grids) {
		panic(fmt.Sprintf("ga: tensor %q expects %d tile coords, got %d", a.Name, len(a.Grids), len(coords)))
	}
	id := 0
	for d := 0; d < len(coords); d++ {
		t := coords[d]
		if t < 0 || t >= a.Grids[d].NumTiles() {
			panic(fmt.Sprintf("ga: tensor %q tile coord %d out of range [0,%d) in dim %d",
				a.Name, t, a.Grids[d].NumTiles(), d))
		}
		if a.symPairAt(d) >= 0 {
			tj := coords[d+1]
			if tj > t {
				panic(fmt.Sprintf("ga: tensor %q non-canonical symmetric tile (%d,%d) in dims (%d,%d)",
					a.Name, t, tj, d, d+1))
			}
			id += sym.PairIndex(t, tj) * a.strides[d]
			d++ // skip absorbed dim
			continue
		}
		id += t * a.strides[d]
	}
	return id
}

// TileWords returns the element count of the tile at the given canonical
// coordinates (product of per-dimension tile widths).
func (a *TiledArray) TileWords(coords []int) int {
	w := 1
	for d, t := range coords {
		w *= a.Grids[d].Width(t)
	}
	return w
}

// TileShape returns the per-dimension widths of a tile.
func (a *TiledArray) TileShape(coords []int) []int {
	shape := make([]int, len(coords))
	for d, t := range coords {
		shape[d] = a.Grids[d].Width(t)
	}
	return shape
}

// Owner returns the process owning the tile at canonical coordinates.
func (a *TiledArray) Owner(coords ...int) int {
	return a.Dist.Owner(a.canonicalID(coords))
}

// Stored reports whether the tile at canonical coordinates physically
// exists (true for every tile of a dense tensor).
func (a *TiledArray) Stored(coords ...int) bool {
	if a.stored == nil {
		return true
	}
	return a.stored[a.canonicalID(coords)]
}

// Bytes returns the tensor's total global-memory footprint.
func (a *TiledArray) Bytes() int64 { return a.bytes }

// NumTiles returns the canonical tile count.
func (a *TiledArray) NumTiles() int { return a.Dist.NumTiles }

// OnDisk reports whether the tensor spilled to the file system.
func (a *TiledArray) OnDisk() bool { return a.onDisk }

// DestroyTiled releases the tensor's global memory.
func (rt *Runtime) DestroyTiled(a *TiledArray) {
	if a.destroyed.Swap(true) {
		panic(fmt.Sprintf("ga: tensor %q destroyed twice", a.Name))
	}
	rt.mu.Lock()
	if !a.onDisk {
		rt.globalBytes -= a.bytes
	}
	rt.liveArrays--
	rt.mu.Unlock()
	a.data = nil
	rt.traceEmit(trace.KindDestroy, trace.SeqProc, rt.Elapsed(), 0, a.Name, a.bytes/8, false)
}

func (a *TiledArray) checkAlive(op string) {
	if a.destroyed.Load() {
		panic(fmt.Sprintf("ga: %s on destroyed tensor %q", op, a.Name))
	}
}

// ForEachTile visits every canonical tile coordinate tuple in a fixed
// deterministic order. The coords slice is reused between calls; copy it
// if retained.
func (a *TiledArray) ForEachTile(f func(coords []int)) { a.forEachCanonical(f) }

// Freeze marks the tensor read-only. It must be called from sequential
// (between-region) code after the last Parallel region that writes the
// tensor: the region boundary already synchronised every producer with
// every later reader, so once frozen GetT copies tile data without
// taking the tile lock at all — concurrent reads of one hot tile (the
// A slabs and O-intermediates every process re-fetches per l-slab) stop
// contending on anything. PutT and AccT on a frozen tensor panic.
// Freezing is idempotent and permanent for the tensor's lifetime;
// RestoreTiles on a frozen tensor panics like a write.
func (a *TiledArray) Freeze() {
	a.checkAlive("Freeze")
	a.frozen.Store(true)
}

// Frozen reports whether Freeze has been called.
func (a *TiledArray) Frozen() bool { return a.frozen.Load() }

// ReadTileInto copies a tile's contents into buf without any accounting.
// Sequential (between-region) helper for result extraction and
// verification; Execute mode only. Unwritten tiles read as zeros.
func (a *TiledArray) ReadTileInto(buf []float64, coords ...int) {
	if a.rt.cfg.Mode != Execute {
		panic("ga: ReadTileInto requires Execute mode")
	}
	a.checkAlive("ReadTileInto")
	id := a.canonicalID(coords)
	words := a.TileWords(coords)
	if len(buf) < words {
		panic(fmt.Sprintf("ga: ReadTileInto buffer %d < tile words %d", len(buf), words))
	}
	if a.data[id] == nil {
		for i := 0; i < words; i++ {
			buf[i] = 0
		}
		return
	}
	copy(buf[:words], a.data[id])
}

// SnapshotTiles serialises the stored canonical tiles into one dense
// slice in ForEachTile order (never-written tiles read as zeros).
// Sequential (between-region) checkpoint helper, free of accounting —
// the caller charges the simulated cost through Runtime.ChargeCheckpoint.
// Returns nil in Cost mode, where a checkpoint records progress only.
func (a *TiledArray) SnapshotTiles() []float64 {
	if a.rt.cfg.Mode != Execute {
		return nil
	}
	a.checkAlive("SnapshotTiles")
	out := make([]float64, 0, a.bytes/8)
	a.forEachCanonical(func(coords []int) {
		id := a.canonicalID(coords)
		if a.stored != nil && !a.stored[id] {
			return
		}
		words := a.TileWords(coords)
		if a.data[id] == nil {
			out = append(out, make([]float64, words)...)
			return
		}
		out = append(out, a.data[id]...)
	})
	return out
}

// RestoreTiles writes a SnapshotTiles result back into the tensor and
// marks every stored tile written (so Strict-mode reads of restored
// state succeed after a restart). A nil data slice — a Cost-mode
// checkpoint — only marks the tiles. Sequential helper, free of
// accounting like SnapshotTiles.
func (a *TiledArray) RestoreTiles(data []float64) {
	a.checkAlive("RestoreTiles")
	if a.frozen.Load() {
		panic(fmt.Sprintf("ga: RestoreTiles on frozen tensor %q", a.Name))
	}
	off := 0
	a.forEachCanonical(func(coords []int) {
		id := a.canonicalID(coords)
		if a.stored != nil && !a.stored[id] {
			return
		}
		if a.written != nil {
			a.written[id].Store(true)
		}
		if a.rt.cfg.Mode != Execute || data == nil {
			return
		}
		words := a.TileWords(coords)
		if off+words > len(data) {
			panic(fmt.Sprintf("ga: RestoreTiles snapshot too small for %q: %d < %d", a.Name, len(data), off+words))
		}
		if a.data[id] == nil {
			a.data[id] = make([]float64, words)
		}
		copy(a.data[id], data[off:off+words])
		off += words
	})
}

// GetT fetches the whole tile at coords into buf (row-major over the
// tensor dims). In Cost mode buf may be nil. Returns the tile's element
// count.
func (p *Proc) GetT(a *TiledArray, buf []float64, coords ...int) int {
	a.checkAlive("GetT")
	id := a.canonicalID(coords)
	words := a.TileWords(coords)
	if a.stored != nil && !a.stored[id] {
		// Symmetry-forbidden block: reads are free zeros. The buffer
		// must still hold the whole tile — a short buffer here would
		// silently leave stale elements past len(buf) that the stored
		// path would have caught, so both paths panic alike.
		if a.rt.cfg.Mode == Execute {
			if len(buf) < words {
				panic(fmt.Sprintf("ga: GetT buffer %d < tile words %d", len(buf), words))
			}
			for i := 0; i < words; i++ {
				buf[i] = 0
			}
		}
		return words
	}
	if a.written != nil && !a.written[id].Load() {
		// Format a copy: formatting coords itself would make every
		// caller's coordinate slice escape to the heap.
		panic(fmt.Sprintf("ga: strict: GetT of never-written tile %v of %q", append([]int(nil), coords...), a.Name))
	}
	p.faultPoint("Get", a.Name)
	start := p.Clock()
	remote := false
	if a.onDisk {
		p.chargeDisk(int64(words), true)
	} else {
		remote = a.Dist.Owner(id) != p.id
		p.chargeTransfer(remote, int64(words), true)
	}
	p.rt.traceEmit(trace.KindGet, p.id, start, p.Clock()-start, a.Name, int64(words), remote)
	if a.rt.cfg.Mode == Execute {
		if len(buf) < words {
			panic(fmt.Sprintf("ga: GetT buffer %d < tile words %d", len(buf), words))
		}
		if a.frozen.Load() {
			// Immutable-after-sync fast path: no writer can exist, so
			// the copy needs no lock (see Freeze).
			a.copyTile(buf, id, words)
		} else {
			a.locks[id].RLock()
			a.copyTile(buf, id, words)
			a.locks[id].RUnlock()
		}
	}
	return words
}

// copyTile copies tile id into buf (never-written tiles read as zeros).
func (a *TiledArray) copyTile(buf []float64, id, words int) {
	if a.data[id] == nil {
		for i := 0; i < words; i++ {
			buf[i] = 0
		}
		return
	}
	copy(buf[:words], a.data[id])
}

// PutT overwrites the whole tile at coords with buf.
func (p *Proc) PutT(a *TiledArray, buf []float64, coords ...int) {
	p.updateT("PutT", a, 0, false, buf, coords)
}

// AccT atomically accumulates alpha*buf into the tile at coords.
func (p *Proc) AccT(a *TiledArray, alpha float64, buf []float64, coords ...int) {
	p.updateT("AccT", a, alpha, true, buf, coords)
}

func (p *Proc) updateT(op string, a *TiledArray, alpha float64, acc bool, buf []float64, coords []int) {
	a.checkAlive(op)
	if a.frozen.Load() {
		panic(fmt.Sprintf("ga: %s on frozen tensor %q", op, a.Name))
	}
	id := a.canonicalID(coords)
	words := a.TileWords(coords)
	if a.stored != nil && !a.stored[id] {
		return // symmetry-forbidden block: writes are no-ops
	}
	if acc {
		p.faultPoint("Acc", a.Name)
	} else {
		p.faultPoint("Put", a.Name)
	}
	start := p.Clock()
	remote := false
	if a.onDisk {
		p.chargeDisk(int64(words), false)
	} else {
		remote = a.Dist.Owner(id) != p.id
		p.chargeTransfer(remote, int64(words), false)
	}
	kind := trace.KindPut
	if acc {
		kind = trace.KindAcc
	}
	p.rt.traceEmit(kind, p.id, start, p.Clock()-start, a.Name, int64(words), remote)
	if a.written != nil {
		a.written[id].Store(true)
	}
	if a.rt.cfg.Mode != Execute {
		return
	}
	if len(buf) < words {
		panic(fmt.Sprintf("ga: %s buffer %d < tile words %d", op, len(buf), words))
	}
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
