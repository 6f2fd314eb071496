package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mhsd") {
		t.Fatalf("version output %q does not name the command", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-n", "1"}, io.Discard, io.Discard); err == nil {
		t.Fatal("1-node fabric accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-window", "0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("zero window accepted")
	}
	err := run([]string{"-n", "24", "-pods", "5"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-pods 5") || !strings.Contains(err.Error(), "-n 24") {
		t.Fatalf("-n 24 -pods 5: got %v, want an error naming both values", err)
	}
	if err := run([]string{"-trace-out", "/nonexistent-dir/trace.jsonl"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unwritable trace path accepted")
	}
}
