package fourindex

import (
	"testing"

	"fourindex/internal/sym"
)

// The façade must be usable exactly as the README shows.
func TestFacadeQuickstart(t *testing.T) {
	spec, err := NewSpec(10, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transform(Hybrid, Options{
		Spec:  spec,
		Procs: 4,
		Mode:  ModeExecute,
		TileN: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.C == nil {
		t.Fatal("execute mode must return C")
	}
	want := ReferencePacked(spec)
	if d := sym.MaxAbsDiffC(res.C, want); d > 1e-9 {
		t.Errorf("facade transform wrong by %v", d)
	}
}

func TestFacadeSchemeNames(t *testing.T) {
	for _, s := range []Scheme{Unfused, Fused1234Pair, Recompute, FullyFused, FullyFusedInner, Hybrid, NWChemFused, Fused123} {
		got, err := SchemeByName(s.String())
		if err != nil || got != s {
			t.Errorf("SchemeByName(%q) = %v, %v", s.String(), got, err)
		}
	}
}

func TestFacadeAnalysis(t *testing.T) {
	ranked := RankFusionConfigs(64, 8)
	if ranked[0].Config.String() != "op1234" {
		t.Errorf("best fusion config = %s", ranked[0].Config)
	}
	sz := Sizes(64, 8)
	if !FullReusePossible(sz.C, sz.C) || FullReusePossible(sz.C-1, sz.C) {
		t.Error("FullReusePossible threshold wrong")
	}
	if FusionLemma(100, 100, 30) != 140 {
		t.Error("FusionLemma arithmetic wrong")
	}
	if DongarraMatmulLB(10, 10, 10, 100) <= 0 {
		t.Error("DongarraMatmulLB not positive")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DongarraMatmulLB accepted S = 0")
			}
		}()
		DongarraMatmulLB(10, 10, 10, 0)
	}()
	adv := Advise(64, 1, UnfusedMemoryWords(64, 1)*8/2)
	if adv.Scheme != "fused" {
		t.Errorf("Advise under pressure = %s", adv.Scheme)
	}
}

func TestFacadeCatalog(t *testing.T) {
	if len(Molecules()) != 5 {
		t.Errorf("catalog size %d", len(Molecules()))
	}
	m, err := MoleculeByName("Uracil")
	if err != nil || m.Orbitals != 698 {
		t.Errorf("Uracil lookup: %v %v", m, err)
	}
	if _, err := MachineByName("B"); err != nil {
		t.Errorf("MachineByName: %v", err)
	}
	if SystemC().Nodes != 1440 {
		t.Error("SystemC nodes wrong")
	}
}

func TestFacadeFigure2Accessors(t *testing.T) {
	if len(Figure2()) != 17 {
		t.Errorf("Figure2 has %d points", len(Figure2()))
	}
	if _, err := RunFigure2("nope"); err == nil {
		t.Error("bad figure should error")
	}
}
