package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins mhsim's stdout byte for byte against outputs
// captured from the pre-registry binary: migrating the dispatch onto
// internal/algo must not change what any existing invocation prints.
// Regenerate a file by running the listed arguments and redirecting
// stdout, only when an output change is intended.
func TestGoldenOutput(t *testing.T) {
	base := []string{"-n", "10", "-window", "200", "-delta", "5", "-seed", "3"}
	cases := []struct {
		file string
		args []string
	}{
		{"octopus.txt", []string{"-algo", "octopus"}},
		{"eclipse-based.txt", []string{"-algo", "eclipse-based"}},
		{"ub.txt", []string{"-algo", "ub"}},
		{"octopus-plus.txt", []string{"-algo", "octopus-plus", "-routes", "4"}},
		{"rotornet.txt", []string{"-algo", "rotornet"}},
		{"octopus-g-multihop.txt", []string{"-algo", "octopus-g", "-multihop"}},
		{"octopus-random.txt", []string{"-algo", "octopus-random", "-routes", "3"}},
		// The gantt chart is rendered from the decision trace; this file was
		// captured from the pre-trace renderer, so it also pins that the
		// trace round-trip reproduces the schedule byte for byte.
		{"octopus-gantt.txt", []string{"-algo", "octopus", "-gantt"}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(append(append([]string(nil), base...), tc.args...), &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output drifted from golden file:\n--- want\n%s--- got\n%s", want, out.Bytes())
			}
		})
	}
}
