package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// minGateWall is the wall time below which a point is too noise-dominated
// to gate: tens-of-milliseconds runs swing well past any sensible
// tolerance under GC and scheduler jitter, so only points that run at
// least this long contribute to (or are checked by) the wall-time gate.
// Their deterministic accounting is still gated regardless.
const minGateWall = 0.05

// Encode writes the report as indented JSON. encoding/json emits struct
// fields in declaration order, so equal reports encode byte-identically
// (the property the determinism and golden tests pin).
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Decode reads a report written by Encode.
func Decode(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("perf: decoding report: %w", err)
	}
	return &r, nil
}

// Gate compares a current report against a baseline and returns the
// regressions found (empty = pass).
//
// Deterministic fields (flops, bytes moved, messages, peak memory,
// simulated seconds, exposed-comm fraction) must match the baseline
// within tolerance — they do not vary across machines, so any drift is
// a real accounting change.
//
// Wall times vary with the host, so they are gated relatively: the
// per-point ratio current/baseline is normalised by the median ratio
// across all gated points (a uniformly faster or slower machine shifts
// every ratio equally and cancels out), and a point fails when its
// normalised ratio exceeds 1+tolerance. Points faster than minGateWall
// in either report are skipped as noise.
//
// The current report may be a subset of the baseline (a smoke run gated
// against the full checked-in matrix); a current point missing from the
// baseline is an error.
func Gate(cur, base *Report, tolerance float64) ([]string, error) {
	if cur == nil || base == nil {
		return nil, fmt.Errorf("perf: Gate needs both reports")
	}
	if cur.SchemaVersion != base.SchemaVersion {
		return nil, fmt.Errorf("perf: schema version mismatch: current %d, baseline %d (regenerate the baseline)",
			cur.SchemaVersion, base.SchemaVersion)
	}
	if tolerance <= 0 {
		return nil, fmt.Errorf("perf: non-positive tolerance %v", tolerance)
	}
	byKey := make(map[string]Point, len(base.Points))
	for _, p := range base.Points {
		byKey[p.Key()] = p
	}

	var violations []string
	type walled struct {
		key        string
		cur, ratio float64
	}
	var ratios []walled
	for _, p := range cur.Points {
		b, ok := byKey[p.Key()]
		if !ok {
			return nil, fmt.Errorf("perf: point %s has no baseline (regenerate with `make bench`)", p.Key())
		}
		for _, m := range []struct {
			name      string
			cur, base float64
		}{
			{"flops", float64(p.Flops), float64(b.Flops)},
			{"bytesMoved", float64(p.BytesMoved), float64(b.BytesMoved)},
			{"messages", float64(p.Messages), float64(b.Messages)},
			{"peakGlobalBytes", float64(p.PeakGlobalBytes), float64(b.PeakGlobalBytes)},
			{"simSeconds", p.SimSeconds, b.SimSeconds},
			{"exposedCommFraction", p.ExposedCommFraction, b.ExposedCommFraction},
		} {
			if d := relDiff(m.cur, m.base); d > tolerance {
				violations = append(violations, fmt.Sprintf("%s: %s drifted %.1f%% (%.6g vs baseline %.6g)",
					p.Key(), m.name, 100*d, m.cur, m.base))
			}
		}
		if p.Measured != nil && b.Measured != nil &&
			p.Measured.WallSeconds >= minGateWall && b.Measured.WallSeconds >= minGateWall {
			ratios = append(ratios, walled{p.Key(), p.Measured.WallSeconds,
				p.Measured.WallSeconds / b.Measured.WallSeconds})
		}
	}

	if len(ratios) > 0 {
		vs := make([]float64, len(ratios))
		for i, r := range ratios {
			vs[i] = r.ratio
		}
		norm := sortedMedian(vs)
		for _, r := range ratios {
			if r.ratio/norm > 1+tolerance {
				violations = append(violations, fmt.Sprintf(
					"%s: wall time regressed %.1f%% after normalisation (%.1fms, machine factor %.2f)",
					r.key, 100*(r.ratio/norm-1), 1e3*r.cur, norm))
			}
		}
	}
	return violations, nil
}

// relDiff is |a-b| / max(|a|,|b|), 0 when both are zero.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// sortedMedian returns the median of vs (vs is sorted in place).
func sortedMedian(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
