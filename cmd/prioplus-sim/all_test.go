package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestParseSeeds: -seeds parses a comma list and rejects a repeated seed,
// whose two runs would share one name and one fingerprint entry.
func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1, 2,3")
	if err != nil || !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("parseSeeds(1, 2,3) = %v, %v", got, err)
	}
	for _, bad := range []string{"1,1", "2,1,2", "x"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
	if _, err := parseSeeds("1,1"); err == nil || !strings.Contains(err.Error(), "seed 1 given twice") {
		t.Errorf("parseSeeds(1,1) = %v, want an error naming seed 1", err)
	}
}

// TestAllRejectsRepeats: a repeated -only id or -seeds value is a usage
// error (exit 2) before anything runs.
func TestAllRejectsRepeats(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "fig2,fig2"},
		{"-only", "fig2", "-seeds", "1,1"},
	} {
		if code := runAll(append(args, "-progress=false")); code != 2 {
			t.Errorf("all %v: exit %d, want 2", args, code)
		}
	}
}

// TestAllReportsWorkersStarted: the worker count `all` reports is the one
// the pool started — GOMAXPROCS for -parallel 0, never more than the runs.
func TestAllReportsWorkersStarted(t *testing.T) {
	for _, c := range []struct {
		parallel string
		want     int
	}{
		{"0", min(runtime.GOMAXPROCS(0), 2)},
		{"8", 2},
		{"1", 1},
	} {
		out := filepath.Join(t.TempDir(), "batch.json")
		if code := runAll([]string{"-only", "fig2", "-seeds", "1,2", "-parallel", c.parallel,
			"-progress=false", "-json", out}); code != 0 {
			t.Fatalf("-parallel %s: exit %d", c.parallel, code)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc batchJSON
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Parallel != c.want {
			t.Errorf("-parallel %s over 2 runs: report says %d workers, want %d", c.parallel, doc.Parallel, c.want)
		}
	}
}
