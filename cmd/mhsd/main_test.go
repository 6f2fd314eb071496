package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"octopus/internal/core"
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
	if err := run([]string{"-window", "100", "-delta", "100"}, io.Discard, io.Discard); !errors.Is(err, core.ErrWindowTooSmall) {
		t.Fatalf("Δ = window: err = %v, want core.ErrWindowTooSmall", err)
	}
	if err := run([]string{"-trace-out", "/nonexistent-dir/trace.jsonl"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unwritable trace path accepted")
	}
}
