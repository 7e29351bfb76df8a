package experiments

import (
	"fmt"
	"io"
	"time"

	"fourindex/internal/chem"
	"fourindex/internal/lb"
	"fourindex/internal/sym"
)

// WriteReport runs the full evaluation and writes a self-contained
// markdown report — Table 1, the capacity claims and all of Figure 2
// with paper-vs-measured columns — to w. It is the machinery behind
// `cmd/figures -report` and exists so that EXPERIMENTS.md-style tables
// can be regenerated from scratch on any machine.
func WriteReport(w io.Writer, now time.Time) error {
	outs, err := RunFigure("")
	if err != nil {
		return err
	}
	return writeReport(w, now, outs)
}

// writeReport writes the report around already simulated Figure 2
// outcomes.
func writeReport(w io.Writer, now time.Time, outs []Outcome) error {
	fmt.Fprintf(w, "# Reproduction report\n\nGenerated %s by `cmd/figures -report`.\n\n",
		now.Format("2006-01-02 15:04:05 MST"))

	// Table 1.
	fmt.Fprintf(w, "## Table 1 — tensor sizes (n = 698, s = %d)\n\n", SpatialSymmetry)
	sz := sym.ExactSizes(698, SpatialSymmetry)
	paper := sym.PaperSizes(698, SpatialSymmetry)
	fmt.Fprintf(w, "| tensor | paper form | paper value | exact packed |\n|---|---|---|---|\n")
	for _, r := range []struct {
		name, form    string
		paperV, exact int64
	}{
		{"A", "n^4/4", paper.A, sz.A},
		{"O1", "n^4/2", paper.O1, sz.O1},
		{"O2", "n^4/4", paper.O2, sz.O2},
		{"O3", "n^4/2", paper.O3, sz.O3},
		{"C", "n^4/(4s)", paper.C, sz.C},
	} {
		fmt.Fprintf(w, "| %s | %s | %d | %d |\n", r.name, r.form, r.paperV, r.exact)
	}

	// Capacity claims.
	fmt.Fprintf(w, "\n## Section 8 memory requirements\n\n")
	fmt.Fprintf(w, "| molecule | orbitals | unfused requirement |\n|---|---|---|\n")
	for _, m := range chem.Catalog {
		fmt.Fprintf(w, "| %s | %d | %.2f TB |\n",
			m.Name, m.Orbitals, float64(m.UnfusedMemoryBytes())/1e12)
	}
	mol, _ := chem.ByName("Shell-Mixed")
	adv := lb.Advise(mol.Orbitals, SpatialSymmetry, int64(8.8e12))
	fmt.Fprintf(w, "\nHeadline: Shell-Mixed needs %.1f TB unfused; on 8.8 TB the advisor says %q",
		float64(mol.UnfusedMemoryBytes())/1e12, adv.Scheme)
	if adv.Scheme == "fused" {
		fmt.Fprintf(w, " (footprint %.2f TB, Tl = %d)", float64(adv.MemoryBytes)/1e12, adv.RequiredTileL)
	}
	fmt.Fprintf(w, ".\nFused flop overhead: %.3fx (paper: ~1.5x).\n", lb.FusedFlopOverhead(mol.Orbitals))

	// Figure 2.
	fmt.Fprintf(w, "\n## Figure 2 — simulated vs paper (kiloseconds)\n\n")
	fmt.Fprintf(w, "| fig | molecule | sys/cores | sim hybrid | scheme | sim NWChem | speedup | paper hybrid | paper NWChem | conforms |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	deviations := 0
	for _, o := range outs {
		conforms := "yes"
		if bad := CheckShape(o); len(bad) > 0 {
			conforms = fmt.Sprintf("NO: %v", bad)
			deviations++
		}
		spd := ""
		if o.Speedup > 0 {
			spd = fmt.Sprintf("%.2fx", o.Speedup)
		}
		fmt.Fprintf(w, "| %s | %s | %s/%d | %s | %v | %s | %s | %s | %s | %s |\n",
			o.Fig, o.Molecule, o.System, o.Cores,
			FormatKs(o.HybridKs, false), o.HybridScheme,
			FormatKs(o.NWChemKs, o.NWChemFailed), spd,
			FormatKs(o.PaperHybridKs, false),
			FormatKs(o.PaperNWChemKs, o.PaperNWChemFailed && o.PaperNWChemKs == 0),
			conforms)
	}
	fmt.Fprintf(w, "\n%d of %d points conform to the paper's prose-stated outcomes.\n",
		len(outs)-deviations, len(outs))
	if deviations > 0 {
		return fmt.Errorf("experiments: %d points deviate from the paper's reported shape", deviations)
	}
	return nil
}
