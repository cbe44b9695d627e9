package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteProfileReportsFailure writes a profile once where it can be
// written and once into a missing directory: the first keeps the exit
// code and the bytes, the second must turn the exit code to 1.
func TestWriteProfileReportsFailure(t *testing.T) {
	dir := t.TempDir()
	prof := bytes.NewBufferString("profile bytes")
	path := filepath.Join(dir, "cpu.prof")
	if code := writeProfile(path, prof, 0); code != 0 {
		t.Fatalf("writable path: exit code %d, want 0", code)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "profile bytes" {
		t.Fatalf("written profile %q, %v", got, err)
	}
	if code := writeProfile(filepath.Join(dir, "missing", "cpu.prof"), prof, 0); code != 1 {
		t.Fatalf("unwritable path: exit code %d, want 1", code)
	}
}

// TestTolRejectsNaNAndNegative diffs table1 against the golden store with
// a NaN and a negative -tol. Both are usage errors (exit 2): a NaN
// tolerance passes every drift and a negative one fails a byte-stable run.
func TestTolRejectsNaNAndNegative(t *testing.T) {
	for _, tol := range []float64{math.NaN(), -0.1} {
		opt := options{
			run:     "table1",
			scale:   "quick",
			seed:    1996,
			diffDir: filepath.Join("..", "..", "internal", "runstore", "testdata", "golden"),
			tol:     tol,
		}
		if code := runAll(&opt); code != 2 {
			t.Errorf("-tol %v: exit code %d, want 2", tol, code)
		}
	}
}

// TestTrialsRejectsNegative diffs fig02 against the golden store with
// -trials -1, a usage error (exit 2): it would rerun the per-scale default
// under a fingerprint no golden artifact carries.
func TestTrialsRejectsNegative(t *testing.T) {
	opt := options{
		run:     "fig02",
		scale:   "quick",
		seed:    1996,
		trials:  -1,
		diffDir: filepath.Join("..", "..", "internal", "runstore", "testdata", "golden"),
	}
	if code := runAll(&opt); code != 2 {
		t.Errorf("-trials -1: exit code %d, want 2", code)
	}
}
