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
		if doc := readBatch(t, out); doc.Parallel != c.want {
			t.Errorf("-parallel %s over 2 runs: report says %d workers, want %d", c.parallel, doc.Parallel, c.want)
		}
	}
}

// TestAllSeedSweepEvents: a faultsweep batch over four seeds reports the
// logical events of the four runs made one batch per seed, whether the
// memo computes the later seeds' cells ahead (GOMAXPROCS 2) or not
// (GOMAXPROCS 1), and prints each run's bytes.
func TestAllSeedSweepEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("five faultsweep batches in -short mode")
	}
	batch := func(seeds string) batchJSON {
		t.Helper()
		out := filepath.Join(t.TempDir(), "batch.json")
		if code := runAll([]string{"-only", "faultsweep", "-seeds", seeds, "-parallel", "1",
			"-progress=false", "-json", out}); code != 0 {
			t.Fatalf("-seeds %s: exit %d", seeds, code)
		}
		return readBatch(t, out)
	}
	seeds := []string{"1001", "1002", "1003", "1004"}
	var want uint64
	var outputs []string
	for _, s := range seeds {
		doc := batch(s)
		want += doc.Events
		outputs = append(outputs, doc.Runs[0].Output)
	}
	for _, procs := range []int{2, 1} {
		old := runtime.GOMAXPROCS(procs)
		doc := batch(strings.Join(seeds, ","))
		runtime.GOMAXPROCS(old)
		if doc.Events != want {
			t.Errorf("GOMAXPROCS %d: the batch counts %d logical events, one batch per seed %d", procs, doc.Events, want)
		}
		for i, r := range doc.Runs {
			if r.Output != outputs[i] {
				t.Errorf("GOMAXPROCS %d: %s printed\n%s\nalone it prints\n%s", procs, r.Name, r.Output, outputs[i])
			}
		}
	}
}

// TestAllTimeoutMarksEventsInexact: a batch whose runs time out exits 1
// and marks its event count inexact, since the abandoned runs keep
// counting on their own goroutines; a batch without one does not.
func TestAllTimeoutMarksEventsInexact(t *testing.T) {
	for _, timeout := range []string{"1ms", "0"} {
		out := filepath.Join(t.TempDir(), "batch.json")
		code := runAll([]string{"-only", "tab2", "-seeds", "1,2", "-timeout", timeout, "-progress=false", "-json", out})
		doc := readBatch(t, out)
		timedOut := timeout != "0"
		if (code == 1) != timedOut || doc.EventsInexact != timedOut {
			t.Errorf("-timeout %s: exit %d, events inexact %t", timeout, code, doc.EventsInexact)
		}
		for _, r := range doc.Runs {
			if strings.Contains(r.Error, "exceeded timeout") != timedOut {
				t.Errorf("-timeout %s: %s: error %q", timeout, r.Name, r.Error)
			}
		}
	}
}

// readBatch reads an `all -json` report.
func readBatch(t *testing.T, path string) batchJSON {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc batchJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}
