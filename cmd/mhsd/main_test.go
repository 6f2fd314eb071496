package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

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
	// A flag nothing reads is refused before mhsd listens; the address is
	// unusable, so a run that got past the check fails there instead.
	for _, tc := range []struct{ args, want string }{
		{"-flight=false -flight-sample 4", "nothing reads -flight-sample"},
		{"-flight=false -flight-cap 64", "nothing reads -flight-cap"},
		{"-flight=false -slo-epochs 8", "nothing reads -slo-epochs"},
		{"-seed 7", "nothing reads -seed"},
		{"-deg 0 -seed 7 -flight=false -flight-cap 9", "nothing reads -flight-cap -seed"},
	} {
		err := run(append(strings.Fields(tc.args), "-addr", "127.0.0.1:-1"), io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mhsd %s: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestSignalShutdown: SIGINT cancels the serving context, so mhsd drains
// and returns cleanly instead of dying. The handler is registered before
// -addr-file announces the address, so the signal cannot arrive unhandled.
func TestSignalShutdown(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	var stdout bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-n", "4", "-window", "20", "-delta", "2", "-epoch", "10ms"}, &stdout, io.Discard)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(addrFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mhsd never wrote its address")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown on SIGINT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mhsd did not stop on SIGINT")
	}
	if !strings.Contains(stdout.String(), "mhsd: shutdown complete") {
		t.Fatalf("stdout %q", stdout.String())
	}
}
