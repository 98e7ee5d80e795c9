package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"prioplus/internal/serve"
)

// requireProfile fails unless path holds a complete pprof file: a gzip
// stream that decodes to the end (an unflushed profile is empty or
// truncated) and carries a non-empty protobuf.
func requireProfile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %d bytes, not a gzip stream: %v", filepath.Base(path), len(data), err)
	}
	proto, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: truncated profile: %v", filepath.Base(path), err)
	}
	if len(proto) == 0 {
		t.Fatalf("%s: empty profile", filepath.Base(path))
	}
}

// TestAllFlushesProfilesWhenCheckFails: a batch that exits 1 on a failed
// -fp-check must still leave both profiles complete — a run that went
// wrong is the one somebody wants to profile.
func TestAllFlushesProfilesWhenCheckFails(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "fp.json")
	if err := serve.WriteManifest(manifest, map[string]string{"tab2/seed=1": "not-the-hash"}); err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	code := runAll([]string{"-only", "tab2", "-progress=false", "-fp-check", manifest,
		"-cpuprofile", cpu, "-memprofile", mem})
	if code != 1 {
		t.Fatalf("exit code %d, want 1 from the failed fingerprint check", code)
	}
	requireProfile(t, cpu)
	requireProfile(t, mem)
}

// TestServeFlushesProfilesOnShutdown drives serve through its -for
// shutdown path, the one SIGINT and SIGTERM share.
func TestServeFlushesProfilesOnShutdown(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	code := runServe([]string{"-listen", "127.0.0.1:0", "-for", "300ms",
		"-cpuprofile", cpu, "-memprofile", mem})
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	requireProfile(t, cpu)
	requireProfile(t, mem)
}
