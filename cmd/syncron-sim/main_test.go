package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// quiet runs f with stdout discarded (run prints its report there).
func quiet(t *testing.T, f func()) {
	t.Helper()
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	f()
}

// checkGzip fails unless path holds a non-empty, complete gzip stream, the
// container format pprof profiles use.
func checkGzip(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatalf("%s is empty", filepath.Base(path))
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("%s: gzip body of %d bytes, err %v", filepath.Base(path), n, err)
	}
}

// -cpuprofile and -memprofile write pprof profiles and leave the run's
// result untouched: `run -json` is byte-identical with and without them.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	base := []string{"-workload", "stack", "-scale", "0.05", "-ops", "8"}
	quiet(t, func() {
		runCmd(append(base, "-json", path("plain.json")))
		runCmd(append(base, "-json", path("profiled.json"),
			"-cpuprofile", path("cpu.prof"), "-memprofile", path("mem.prof")))
	})
	plain, err := os.ReadFile(path("plain.json"))
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := os.ReadFile(path("profiled.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, profiled) {
		t.Fatal("run -json output differs with profiling on")
	}
	checkGzip(t, path("cpu.prof"))
	checkGzip(t, path("mem.prof"))
}
