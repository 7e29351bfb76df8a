package main

import (
	"strings"
	"testing"
)

// TestRunTable drives the command body over valid and invalid
// invocations: valid runs print the games and bounds and exit 0;
// invalid ones exit 2 before the first byte of stdout, with the reason
// on stderr.
func TestRunTable(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		code    int
		wantOut []string // substrings of stdout on success
		wantErr string   // substring of stderr on failure
	}{
		{
			name: "matmul",
			args: []string{"-matmul", "-n", "4", "-tile", "2"},
			wantOut: []string{
				"Matrix multiplication C = A*B, n = 4, S = 15 red pebbles",
				"tiled T=2 (Figure 1 right)",
				"Dongarra et al. bound:",
			},
		},
		{
			name: "fourindex",
			args: []string{"-fourindex", "-n", "2"},
			wantOut: []string{
				"Four-index transform chain, n = 2",
				"fully fused op1234 (Listing 7)",
				"Theorem 6.2's necessity",
			},
		},
		{name: "no game", args: nil, code: 2, wantErr: "Usage"},
		{name: "zero tile", args: []string{"-matmul", "-n", "4", "-tile", "0"}, code: 2, wantErr: "-tile must be at least 1"},
		{name: "negative tile", args: []string{"-matmul", "-tile", "-3"}, code: 2, wantErr: "-tile must be at least 1"},
		{name: "negative s", args: []string{"-matmul", "-s", "-5"}, code: 2, wantErr: "-s must be non-negative"},
		{name: "zero n", args: []string{"-matmul", "-n", "0"}, code: 2, wantErr: "-n must be at least 1"},
		{name: "negative n", args: []string{"-fourindex", "-n", "-1"}, code: 2, wantErr: "-n must be at least 1"},
		{name: "fourindex too large", args: []string{"-matmul", "-fourindex", "-n", "5"}, code: 2, wantErr: "-fourindex needs n <= 4"},
		{name: "stray argument", args: []string{"-matmul", "extra"}, code: 2, wantErr: `unexpected argument "extra"`},
		{name: "malformed flag", args: []string{"-n", "abc"}, code: 2, wantErr: "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(tc.args, &out, &errOut)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.code, errOut.String())
			}
			if tc.code != 0 {
				if out.Len() != 0 {
					t.Errorf("run(%v) printed %d bytes before failing:\n%s", tc.args, out.Len(), out.String())
				}
				if !strings.Contains(errOut.String(), tc.wantErr) {
					t.Errorf("run(%v) stderr = %q, want substring %q", tc.args, errOut.String(), tc.wantErr)
				}
				return
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("run(%v) output lacks %q:\n%s", tc.args, want, out.String())
				}
			}
		})
	}
}
