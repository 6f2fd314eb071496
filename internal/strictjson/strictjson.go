// Package strictjson is the one JSON decode under every input file and
// request body: load documents and JSONL records, failure traces,
// schedules, and the daemon's flow and fabric requests. A misspelt key or
// a second value pasted after the first is an error, never silently
// dropped: a schedule whose "delta" is misspelt must not replay at Δ = 0.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
	"os"
)

var errTrailing = errors.New("trailing data after the JSON value")

// Decode reads exactly one JSON value from r into v. Object keys that v
// has no field for are errors, and only whitespace may follow the value.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// More would let a stray '}' or ']' through; only a clean end will do.
	var extra json.RawMessage
	if dec.Decode(&extra) != io.EOF {
		return errTrailing
	}
	return nil
}

// ReadFile opens path and reads it with read.
func ReadFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}

// WriteFile creates path and writes it with write, reporting the first
// error of the write or the close.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
