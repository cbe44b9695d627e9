package main

import (
	"bytes"
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
