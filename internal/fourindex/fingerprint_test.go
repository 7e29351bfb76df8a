package fourindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fourindex/internal/chem"
	"fourindex/internal/cluster"
	"fourindex/internal/ga"
	"fourindex/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the schedule fingerprint golden")

const fingerprintGolden = "schedule_fingerprints.txt"

// fingerprintCase is one pinned configuration: a schedule at n=10 with
// ragged tiles (TileN 4, TileL 3) on three processes.
type fingerprintCase struct {
	scheme   Scheme
	s        int
	overlap  bool
	alphaPar int
	lPar     int
}

func (fc fingerprintCase) name() string {
	name := fc.scheme.String()
	if fc.alphaPar > 1 {
		name += fmt.Sprintf("/a%d", fc.alphaPar)
	}
	if fc.lPar > 1 {
		name += fmt.Sprintf("/l%d", fc.lPar)
	}
	ov := 0
	if fc.overlap {
		ov = 1
	}
	return fmt.Sprintf("%s/s%d/o%d", name, fc.s, ov)
}

func fingerprintCases() []fingerprintCase {
	type variant struct {
		scheme         Scheme
		alphaPar, lPar int
	}
	var variants []variant
	for _, s := range append(append([]Scheme{}, allSchemes...), NWChemFused, Hybrid) {
		variants = append(variants, variant{s, 1, 1})
	}
	variants = append(variants, variant{FullyFusedInner, 2, 1}, variant{FullyFusedInner, 1, 2})
	var cases []fingerprintCase
	for _, v := range variants {
		for _, s := range []int{1, 2} {
			for _, ov := range []bool{false, true} {
				cases = append(cases, fingerprintCase{v.scheme, s, ov, v.alphaPar, v.lPar})
			}
		}
	}
	return cases
}

// fingerprint runs fc in cost mode (traced, on a two-node machine
// model) and in execute mode, and renders every deterministic output as
// "<case> <field> <value>" lines.
func fingerprint(t *testing.T, fc fingerprintCase) []byte {
	t.Helper()
	machine, err := cluster.ByName("A")
	if err != nil {
		t.Fatal(err)
	}
	run, err := machine.Configure(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Spec:     chem.MustSpec(10, fc.s, 7),
		Procs:    3,
		TileN:    4,
		TileL:    3,
		AlphaPar: fc.alphaPar,
		LPar:     fc.lPar,
		Overlap:  fc.overlap,
	}

	costOpt := opt
	costOpt.Mode = ga.Cost
	costOpt.Run = &run
	tr := trace.New(1 << 16)
	costOpt.Trace = tr
	res, err := Run(fc.scheme, costOpt)
	if err != nil {
		t.Fatalf("%s cost: %v", fc.name(), err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("%s: trace ring dropped %d events", fc.name(), tr.Dropped())
	}
	chrome := sha256.New()
	if err := tr.WriteChromeTrace(chrome); err != nil {
		t.Fatal(err)
	}

	execOpt := opt
	execOpt.Mode = ga.Execute
	exec, err := Run(fc.scheme, execOpt)
	if err != nil {
		t.Fatalf("%s execute: %v", fc.name(), err)
	}
	cbits := sha256.New()
	var word [8]byte
	for _, v := range exec.C.Data() {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		cbits.Write(word[:])
	}

	var buf bytes.Buffer
	field := func(key string, v any) { fmt.Fprintf(&buf, "%s %s %v\n", fc.name(), key, v) }
	field("chrome_sha256", fmt.Sprintf("%x", chrome.Sum(nil)))
	field("c_sha256", fmt.Sprintf("%x", cbits.Sum(nil)))
	tot := res.Totals
	field("flops", tot.Flops)
	field("disk_traffic", tot.DiskTraffic)
	field("comm_traffic", tot.CommTraffic)
	field("disk_messages", tot.DiskMessages)
	field("comm_messages", tot.CommMessages)
	field("peak_elements", tot.PeakElements)
	field("retries", tot.Retries)
	field("comm_volume", res.CommVolume)
	field("intra_volume", res.IntraVolume)
	field("disk_volume", res.DiskVolume)
	field("peak_global_bytes", res.PeakGlobalBytes)
	field("elapsed_bits", fmt.Sprintf("%#016x", math.Float64bits(res.ElapsedSeconds)))
	field("exposed_bits", fmt.Sprintf("%#016x", math.Float64bits(res.ExposedCommSeconds)))
	field("overlap_bits", fmt.Sprintf("%#016x", math.Float64bits(res.OverlapCommSeconds)))
	return buf.Bytes()
}

// TestScheduleFingerprints pins each schedule's observable behaviour:
// its cost-mode event stream (through the Chrome export), its
// execute-mode C bits, its counters and its simulated clocks. A
// refactor of the schedule kernels must leave the golden byte-identical;
// an intentional change regenerates it with
// `go test ./internal/fourindex -run TestScheduleFingerprints -update`
// and shows up as a per-field diff.
func TestScheduleFingerprints(t *testing.T) {
	var got bytes.Buffer
	for _, fc := range fingerprintCases() {
		got.Write(fingerprint(t, fc))
	}
	golden := filepath.Join("testdata", fingerprintGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/fourindex -run TestScheduleFingerprints -update` to regenerate)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	shown := 0
	for i := 0; i < max(len(gotLines), len(wantLines)) && shown < 20; i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("fingerprint line %d:\n  got  %s\n  want %s", i+1, g, w)
			shown++
		}
	}
}
