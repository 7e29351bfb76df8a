package chain

import (
	"fmt"
	"math"
	"sort"
)

// MaxOps caps the chain length the engine accepts: it bounds the
// 2^(m-1) configuration enumeration and keeps the op-notation strings
// unambiguous (single digits).
const MaxOps = 9

// Thresholds collects the capacities (in elements) at which the chain's
// bounds change regime — the generalization of the paper's closed-form
// knees (lb.Thresholds is produced by this via the FourIndex chain).
type Thresholds struct {
	// SingleTight is the capacity above which every single contraction
	// attains I/O = |in|+|out| (max over ops of operand + red + 1, the
	// Listing 5 working set).
	SingleTight int64 `json:"singleTight"`
	// PairUseful is the capacity below which the Fusion Lemma makes every
	// pair fusion futile (max over adjacent pairs of both operands plus
	// the mid-slab prod_i * red_i+1).
	PairUseful int64 `json:"pairUseful"`
	// PairFusion is the capacity above which every fused consecutive pair
	// attains I/O = |in|+|out| (Theorem 5.1 generalized: PairUseful of
	// the pair plus red_i + 1).
	PairFusion int64 `json:"pairFusion"`
	// FullReuse is the final output size: Theorem 6.2's necessary and
	// sufficient capacity for the full chain to attain I/O = |in|+|out|.
	FullReuse int64 `json:"fullReuse"`
	// FullReuseSufficient is FullReuse plus two row-panels of working
	// space — the capacity at which a Listing 7-style schedule concretely
	// achieves the full-reuse bound.
	FullReuseSufficient int64 `json:"fullReuseSufficient"`
}

// singleTight returns the capacity above which op i (0-based) attains
// its |in|+|out| floor: the contracted operand, one input row, and one
// running scalar (Listing 5 generalized).
func (c *Chain) singleTight(i int) int64 {
	return satAdd(satAdd(c.Ops[i].OperandElements, c.Ops[i].Red), 1)
}

// pairUseful returns the capacity below which fusing ops (i, i+1)
// (0-based) cannot beat their unfused cost: both operands plus the
// prod_i x red_i+1 mid slab (Section 5.1 generalized; 3n^2 for the
// four-index chain).
func (c *Chain) pairUseful(i int) int64 {
	slab := satMul(c.Ops[i].Prod, c.Ops[i+1].Red)
	return satAdd(satAdd(c.Ops[i].OperandElements, c.Ops[i+1].OperandElements), slab)
}

// pairTight returns the capacity above which the fused pair (i, i+1)
// attains its floor: pairUseful plus one input row and a scalar
// (Theorem 5.1 / Listing 6 generalized; 3n^2+n+1 for four-index).
func (c *Chain) pairTight(i int) int64 {
	return satAdd(satAdd(c.pairUseful(i), c.Ops[i].Red), 1)
}

// Thresholds derives the chain's regime-change capacities. For the
// FourIndex chain this reproduces lb.ThresholdsFor bit-exactly; a
// single-op chain has zero pair thresholds (there is no pair).
func (c *Chain) Thresholds() Thresholds {
	var t Thresholds
	var maxRows int64
	for i := range c.Ops {
		if v := c.singleTight(i); v > t.SingleTight {
			t.SingleTight = v
		}
		if op := c.Ops[i]; op.Rows > maxRows {
			maxRows = op.Rows
		}
	}
	for i := 0; i+1 < len(c.Ops); i++ {
		if v := c.pairUseful(i); v > t.PairUseful {
			t.PairUseful = v
		}
		if v := c.pairTight(i); v > t.PairFusion {
			t.PairFusion = v
		}
	}
	t.FullReuse = c.Output().Elements
	t.FullReuseSufficient = satAdd(t.FullReuse, satMul(2, maxRows))
	return t
}

// ConfigIO returns the memory-independent I/O floor of a fusion
// configuration: the sum over fused groups of (group input + group
// output), the Section 5.3 bound generalized to any chain.
func (c *Chain) ConfigIO(cfg Config) (int64, error) {
	if err := c.CheckConfig(cfg); err != nil {
		return 0, err
	}
	bounds := make([]int64, len(c.Boundaries))
	for i, t := range c.Boundaries {
		bounds[i] = t.Elements
	}
	return FloorIO(bounds, cfg)
}

// FloorIO returns the fused-group floor — the sum over groups of (group
// input + group output) — for a configuration over raw boundary sizes
// (len(bounds) must be the op count plus one). Boundary sizes are all
// the floor needs, so callers with sizes but no shapes (lb.ConfigIO over
// sym.Sizes) can use the engine without a full chain description.
func FloorIO(bounds []int64, cfg Config) (int64, error) {
	bad := func(reason string, args ...any) error {
		return &ValidationError{Field: "config", Reason: fmt.Sprintf(reason, args...)}
	}
	if len(cfg.Groups) == 0 {
		return 0, bad("configuration has no groups")
	}
	want := 1
	for _, g := range cfg.Groups {
		if len(g) == 0 {
			return 0, bad("configuration has an empty group")
		}
		for _, op := range g {
			if op != want {
				return 0, bad("groups must partition the ops contiguously; got op %d where %d was expected", op, want)
			}
			want++
		}
	}
	if len(bounds) != want {
		return 0, bad("configuration covers %d ops but %d boundary sizes were given", want-1, len(bounds))
	}
	var total int64
	for _, g := range cfg.Groups {
		total = satAdd(total, satAdd(bounds[g[0]-1], bounds[g[len(g)-1]]))
	}
	return total, nil
}

// ConfigTight reports whether ConfigIO is a tight bound for the
// configuration: every group has at most two contractions (Listings 5
// and 6), or the group is the entire chain (tight at S >= |out| by the
// Listing 7 construction).
func (c *Chain) ConfigTight(cfg Config) bool {
	for _, g := range cfg.Groups {
		if len(g) > 2 && len(g) != len(c.Ops) {
			return false
		}
	}
	return true
}

// ConfigBoundAt returns the I/O lower bound of fusion configuration cfg
// at fast-memory capacity S, summed over fused groups with the same
// regime-aware group rules as lb.ConfigBoundAt (which delegates here).
// It returns a *ValidationError for a bad configuration and a
// *CapacityError for S <= 0 — the serve-reachable replacement for lb's
// non-positive-S panic.
func (c *Chain) ConfigBoundAt(cfg Config, S int64) (float64, error) {
	if err := c.CheckConfig(cfg); err != nil {
		return 0, err
	}
	if err := CheckCapacity(S); err != nil {
		return 0, err
	}
	return c.boundAt(cfg, S), nil
}

// CheckCapacity validates a fast-memory capacity, returning a typed
// *CapacityError for non-positive values.
func CheckCapacity(S int64) error {
	if S <= 0 {
		return &CapacityError{S: S, Reason: "fast-memory capacity must be positive"}
	}
	return nil
}

// boundAt evaluates the configuration bound after validation.
func (c *Chain) boundAt(cfg Config, S int64) float64 {
	var total float64
	for _, g := range cfg.Groups {
		total += c.groupBoundAt(g, S)
	}
	return total
}

// groupBoundAt returns the capacity-S lower bound of one fused group,
// mirroring lb.groupBoundAt's regime cases:
//
//   - single op: |in|+|out| above its tight threshold, else
//     max(Dongarra, |in|+|out|);
//   - pair: the floor above the pair threshold, else the Fusion Lemma
//     over the two Dongarra bounds;
//   - triple: max(floor, chained Fusion Lemma) — no tight construction;
//   - larger groups: the floor once S holds the group output (the
//     Theorem 6.2 condition applied to the group), else the best of the
//     floor, a greedy pairwise decomposition, and the chained lemma.
func (c *Chain) groupBoundAt(g []int, S int64) float64 {
	first, last := g[0], g[len(g)-1]
	floor := float64(c.in(first-1) + c.out(last-1))
	switch len(g) {
	case 1:
		return c.singleBoundAt(first, S)
	case 2:
		return c.pairBoundAt(first, S)
	case 3:
		return math.Max(floor, c.lemmaChainAt(g, S))
	default:
		if S >= c.out(last-1) {
			return floor // full reuse within the group is attainable
		}
		pair := c.greedyPairsAt(g, S)
		return math.Max(math.Max(floor, pair), c.lemmaChainAt(g, S))
	}
}

// singleBoundAt is the capacity-S bound of op (1-based) alone.
func (c *Chain) singleBoundAt(op int, S int64) float64 {
	i := op - 1
	in, out := c.in(i), c.out(i)
	if S >= c.singleTight(i) {
		return float64(in + out)
	}
	o := c.Ops[i]
	return MatmulOpLB(o.Rows, o.Red, o.Prod, S, in, out)
}

// pairBoundAt is the capacity-S bound of the fused pair (op, op+1),
// 1-based: the floor above the pair threshold, else the Fusion Lemma
// over the two raw Dongarra bounds.
func (c *Chain) pairBoundAt(op int, S int64) float64 {
	i := op - 1
	floor := float64(c.in(i) + c.out(i+1))
	if S >= c.pairTight(i) {
		return floor
	}
	o1, o2 := c.Ops[i], c.Ops[i+1]
	d1 := Dongarra(o1.Rows, o1.Red, o1.Prod, S)
	d2 := Dongarra(o2.Rows, o2.Red, o2.Prod, S)
	lemma := FusionLemma(d1, d2, c.out(i))
	return math.Max(floor, lemma)
}

// greedyPairsAt decomposes a fused group into consecutive pairs (plus a
// trailing single for odd lengths) and sums their bounds — the best
// partial decomposition a schedule must at least pay when full reuse is
// impossible (Theorem 5.2's op12/34 term for the four-index chain).
func (c *Chain) greedyPairsAt(g []int, S int64) float64 {
	var total float64
	i := 0
	for ; i+1 < len(g); i += 2 {
		total += c.pairBoundAt(g[i], S)
	}
	if i < len(g) {
		total += c.singleBoundAt(g[i], S)
	}
	return total
}

// lemmaChainAt chains the Fusion Lemma over a fused group: the sum of
// per-contraction bounds minus two crossings of every internal
// intermediate.
func (c *Chain) lemmaChainAt(g []int, S int64) float64 {
	var lemma float64
	for _, op := range g {
		lemma += c.singleBoundAt(op, S)
	}
	for i := 0; i < len(g)-1; i++ {
		lemma -= 2 * float64(c.out(g[i]-1))
	}
	return lemma
}

// ConfigFlatThreshold returns the capacity at which ConfigBoundAt
// flattens onto ConfigIO: the largest per-group tightness threshold.
func (c *Chain) ConfigFlatThreshold(cfg Config) (int64, error) {
	if err := c.CheckConfig(cfg); err != nil {
		return 0, err
	}
	var t int64
	for _, g := range cfg.Groups {
		var gt int64
		switch len(g) {
		case 1:
			gt = c.singleTight(g[0] - 1)
		case 2:
			gt = c.pairTight(g[0] - 1)
		case 3:
			for _, op := range g {
				if v := c.singleTight(op - 1); v > gt {
					gt = v
				}
			}
		default:
			gt = c.out(g[len(g)-1] - 1)
		}
		if gt > t {
			t = gt
		}
	}
	return t, nil
}

// ConfigMinMemory returns the minimum aggregate-memory footprint (in
// elements) at which a schedule family realising cfg can run, from the
// Section 2/7 memory models generalized to the chain's declared slab
// sizes:
//
//   - all-singleton and all-pair configurations run each group at full
//     scale, so the peak is the largest coexisting (group in + group out);
//   - a fully fused chain streams a width-1 slab of every op input while
//     keeping the output resident;
//   - a fused prefix followed by singletons streams the prefix slabs and
//     then pays the largest remaining (in + out) pair;
//   - configurations without an implemented schedule shape are bounded
//     below by the fully fused minimum (the cheapest that fuses at least
//     as much), matching lb.ConfigMinMemory's fallback.
func (c *Chain) ConfigMinMemory(cfg Config) (int64, error) {
	if err := c.CheckConfig(cfg); err != nil {
		return 0, err
	}
	uniformLen := func(n int) bool {
		for _, g := range cfg.Groups {
			if len(g) != n {
				return false
			}
		}
		return true
	}
	switch {
	case uniformLen(1) || uniformLen(2):
		var peak int64
		for _, g := range cfg.Groups {
			v := satAdd(c.in(g[0]-1), c.out(g[len(g)-1]-1))
			if v > peak {
				peak = v
			}
		}
		return peak, nil
	case len(cfg.Groups) > 1 && len(cfg.Groups[0]) >= 3 && c.suffixAllSingles(cfg):
		var mem int64
		for _, op := range cfg.Groups[0] {
			mem = satAdd(mem, c.Boundaries[op-1].SlabElements)
		}
		var peak int64
		for _, g := range cfg.Groups[1:] {
			v := satAdd(c.in(g[0]-1), c.out(g[0]-1))
			if v > peak {
				peak = v
			}
		}
		return satAdd(mem, peak), nil
	default:
		return c.fullyFusedMinMemory(), nil
	}
}

// suffixAllSingles reports whether every group after the first is a
// singleton.
func (c *Chain) suffixAllSingles(cfg Config) bool {
	for _, g := range cfg.Groups[1:] {
		if len(g) != 1 {
			return false
		}
	}
	return true
}

// fullyFusedMinMemory is the footprint of streaming a width-1 slab of
// every op input with the final output resident — the Section 7 Eq. 8
// model at Tl = 1, generalized via the declared slab sizes.
func (c *Chain) fullyFusedMinMemory() int64 {
	var mem int64
	for i := range c.Ops {
		mem = satAdd(mem, c.Boundaries[i].SlabElements)
	}
	return satAdd(mem, c.Output().Elements)
}

// CapacityGrid builds the deterministic capacity sweep for the chain: a
// geometric grid with perDecade points per decade (<= 0 selects 8) from
// half the single-contraction threshold up to twice the unfused
// footprint, with every positive closed-form threshold inserted exactly
// (the same construction as lb.CapacityGrid, which delegates here).
func (c *Chain) CapacityGrid(perDecade int) []int64 {
	if perDecade <= 0 {
		perDecade = 8
	}
	th := c.Thresholds()
	lo := th.SingleTight / 2
	if lo < 3 {
		lo = 3
	}
	var unfusedPeak int64
	for i := range c.Ops {
		if v := satAdd(c.in(i), c.out(i)); v > unfusedPeak {
			unfusedPeak = v
		}
	}
	hi := satMul(2, unfusedPeak)
	ratio := math.Pow(10, 1/float64(perDecade))
	var grid []int64
	for _, t := range []int64{th.SingleTight, th.PairUseful, th.PairFusion, th.FullReuse, th.FullReuseSufficient} {
		if t > 0 {
			grid = append(grid, t)
		}
	}
	for x := float64(lo); x <= float64(hi); x *= ratio {
		grid = append(grid, int64(math.Round(x)))
	}
	grid = append(grid, hi)
	return dedupeSorted(grid)
}

// dedupeSorted sorts capacities ascending and removes duplicates.
func dedupeSorted(grid []int64) []int64 {
	sort.Slice(grid, func(i, j int) bool { return grid[i] < grid[j] })
	out := grid[:0]
	var prev int64 = -1
	for _, v := range grid {
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// CurvePoint is one sample of a configuration's frontier curve.
type CurvePoint struct {
	// S is the fast-memory capacity in elements.
	S int64 `json:"s"`
	// BoundElements is the I/O lower bound at S.
	BoundElements float64 `json:"boundElements"`
}

// Curve is one fusion configuration's capacity-vs-bound frontier.
type Curve struct {
	// Config is the fusion configuration in op-notation ("op12/34").
	Config string `json:"config"`
	// FloorElements is the memory-independent floor ConfigIO.
	FloorElements int64 `json:"floorElements"`
	// FlatAtS is the smallest grid capacity at which the bound equals
	// the floor (the detected knee).
	FlatAtS int64 `json:"flatAtS"`
	// MinMemoryElements is the feasibility edge from ConfigMinMemory.
	MinMemoryElements int64 `json:"minMemoryElements"`
	// Points samples the bound over the capacity grid, ascending in S.
	Points []CurvePoint `json:"points"`
}

// ComputeCurve sweeps configuration cfg over the capacity grid (nil or
// empty selects the chain's default grid) and returns its frontier
// curve, including the detected flattening knee.
func (c *Chain) ComputeCurve(cfg Config, grid []int64) (Curve, error) {
	if err := c.CheckConfig(cfg); err != nil {
		return Curve{}, err
	}
	if len(grid) == 0 {
		grid = c.CapacityGrid(0)
	}
	floorInt, err := c.ConfigIO(cfg)
	if err != nil {
		return Curve{}, err
	}
	minMem, err := c.ConfigMinMemory(cfg)
	if err != nil {
		return Curve{}, err
	}
	cv := Curve{
		Config:            cfg.String(),
		FloorElements:     floorInt,
		MinMemoryElements: minMem,
		Points:            make([]CurvePoint, 0, len(grid)),
	}
	floor := float64(cv.FloorElements)
	for _, S := range grid {
		if err := CheckCapacity(S); err != nil {
			return Curve{}, err
		}
		b := c.boundAt(cfg, S)
		cv.Points = append(cv.Points, CurvePoint{S: S, BoundElements: b})
		if cv.FlatAtS == 0 && b <= floor {
			cv.FlatAtS = S
		}
	}
	return cv, nil
}

// RankedConfig pairs a configuration with its derived floor, tightness,
// and feasibility edge.
type RankedConfig struct {
	// Config is the fusion configuration.
	Config Config `json:"-"`
	// Name is the configuration in op-notation.
	Name string `json:"config"`
	// IO is the memory-independent floor ConfigIO.
	IO int64 `json:"ioElements"`
	// Tight reports whether the floor is known attainable (ConfigTight).
	Tight bool `json:"tight"`
	// MinMemory is the feasibility edge ConfigMinMemory.
	MinMemory int64 `json:"minMemoryElements"`
}

// RankConfigs enumerates every fusion configuration of the chain and
// orders them by I/O floor ascending, ties toward fewer groups (more
// fusion) — the same total order as lb.RankConfigs.
func (c *Chain) RankConfigs() ([]RankedConfig, error) {
	cfgs := EnumerateConfigs(len(c.Ops))
	out := make([]RankedConfig, len(cfgs))
	for i, cfg := range cfgs {
		io, err := c.ConfigIO(cfg)
		if err != nil {
			return nil, err
		}
		mm, err := c.ConfigMinMemory(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = RankedConfig{Config: cfg, Name: cfg.String(), IO: io, Tight: c.ConfigTight(cfg), MinMemory: mm}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].IO != out[j].IO {
			return out[i].IO < out[j].IO
		}
		return len(out[i].Config.Groups) < len(out[j].Config.Groups)
	})
	return out, nil
}
