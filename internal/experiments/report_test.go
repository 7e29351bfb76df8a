package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 2 simulation")
	}
	outs, err := figure2()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeReport(&sb, time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC), outs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Reproduction report",
		"Table 1",
		"Shell-Mixed",
		"Figure 2",
		"17 of 17 points conform",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
