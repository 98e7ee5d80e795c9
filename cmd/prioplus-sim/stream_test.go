package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prioplus/internal/exp"
	"prioplus/internal/obs"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/serve"
)

// runFig10b runs fig10b at seed 1 with the given instruments.
func runFig10b(t *testing.T, ins serve.Instruments) string {
	t.Helper()
	var out bytes.Buffer
	if _, err := serve.Execute("fig10b", exp.RunParams{Seed: 1}, ins, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestStreamingDeterminism pins the live-streaming contract: a run with a
// hub attached produces byte-identical figure output to a plain run, the
// streamed line sequence is byte-identical to the on-disk artifact, and a
// slow subscriber drops lines (with a counter) instead of stalling the
// run. CI runs this under -race.
func TestStreamingDeterminism(t *testing.T) {
	plain := runFig10b(t, serve.Instruments{})

	dir := t.TempDir()
	hub := stream.NewHub()
	sub := hub.Subscribe(1 << 20)
	slow := hub.Subscribe(2) // never read until the run ends
	live := runFig10b(t, serve.Instruments{Series: true, Dir: dir, Hub: hub})
	hub.Close()

	if plain != live {
		t.Errorf("figure output changed with streaming enabled:\nplain:\n%s\nlive:\n%s", plain, live)
	}

	var streamed bytes.Buffer
	for msg := range sub.C() {
		if msg.Run != "fig10b__incast__seed1" {
			t.Fatalf("streamed run stem = %q", msg.Run)
		}
		streamed.Write(msg.Line)
		streamed.WriteByte('\n')
	}
	disk, err := os.ReadFile(filepath.Join(dir, "fig10b__incast__seed1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), disk) {
		t.Errorf("streamed lines differ from on-disk artifact: %d vs %d bytes",
			streamed.Len(), len(disk))
	}
	if sub.Dropped() != 0 {
		t.Errorf("large subscriber dropped %d lines", sub.Dropped())
	}

	got := 0
	for range slow.C() {
		got++
	}
	if got != 2 || slow.Dropped() == 0 {
		t.Errorf("slow subscriber: got %d lines, dropped %d; want 2 kept and the rest counted",
			got, slow.Dropped())
	}
}

// TestStreamOnlyRun: -listen without -series still produces a full artifact
// stream (the hub is the only sink).
func TestStreamOnlyRun(t *testing.T) {
	hub := stream.NewHub()
	sub := hub.Subscribe(1 << 20)
	runFig10b(t, serve.Instruments{Series: true, Hub: hub})
	hub.Close()
	var first string
	n := 0
	for msg := range sub.C() {
		if n == 0 {
			first = string(msg.Line)
		}
		n++
	}
	if n < 2 {
		t.Fatalf("stream-only run published %d lines", n)
	}
	if !strings.Contains(first, `"type":"meta"`) ||
		!strings.Contains(first, fmt.Sprintf(`"v":%d`, obs.ArtifactVersion)) {
		t.Errorf("first streamed line = %q, want a versioned meta line", first)
	}
}

// TestCostRuntimeDeterminism pins the self-observability contract: cost
// attribution and runtime gauges must not perturb figure bytes, and their
// series/metrics land in the artifact.
func TestCostRuntimeDeterminism(t *testing.T) {
	plain := runFig10b(t, serve.Instruments{})

	// Cost alone (no artifact sink): output identical.
	if costOnly := runFig10b(t, serve.Instruments{Cost: true}); plain != costOnly {
		t.Errorf("figure output changed with -cost:\nplain:\n%s\ncost:\n%s", plain, costOnly)
	}

	// Cost + runtime with an artifact: output identical, artifact carries
	// the new series and metrics.
	dir := t.TempDir()
	full := runFig10b(t, serve.Instruments{Series: true, Dir: dir, Cost: true, Runtime: true})
	if plain != full {
		t.Errorf("figure output changed with -cost -runtime:\nplain:\n%s\nfull:\n%s", plain, full)
	}
	art, err := os.ReadFile(filepath.Join(dir, "fig10b__incast__seed1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`runtime/heap_bytes`, `runtime/events_per_sec`, `cost/`} {
		if !strings.Contains(string(art), want) {
			t.Errorf("artifact missing %q", want)
		}
	}
}

// TestWatchRender drives the dashboard's pure render path with fabricated
// snapshots: the frame must carry the rate (computed across two polls), the
// run table, and the cost bars.
func TestWatchRender(t *testing.T) {
	var st watchState
	m1 := stream.MetricsSnapshot{WallUnixMS: 1000}
	m1.Sim.Events = 0
	m1.Runtime.HeapBytes = 32 << 20
	m1.Runtime.Goroutines = 9
	renderWatch(&st, "http://x", m1, stream.RunsSnapshot{}, nil)

	m2 := m1
	m2.WallUnixMS = 2000
	m2.Sim.Events = 1_000_000
	m2.Cost = []stream.CostMetric{
		{Kind: "deliver_host", Samples: 100, Nanos: 9000, Share: 0.9},
		{Kind: "transmit", Samples: 10, Nanos: 1000, Share: 0.1},
	}
	runs := stream.RunsSnapshot{
		Runs: []runner.RunSnapshot{{
			Name: "fig10b/seed=1", Status: "running", Phase: "incast",
			Events: 1_000_000, EventsPerSec: 1e6, SimUS: 1234,
			WatchdogLimit: 1000, WatchdogPct: 25,
		}},
	}
	runs.Batch.Total, runs.Batch.Running, runs.Batch.Events = 1, 1, 1_000_000
	frame := renderWatch(&st, "http://x", m2, runs, nil)

	for _, want := range []string{
		"1.00M ev/s",    // rate from the poll delta
		"fig10b/seed=1", // run table row
		"running",       // status column
		"incast",        // phase column
		"25%",           // watchdog proximity
		"deliver_host",  // top cost bucket
		"90%",           // its share
		"32.0MiB",       // heap gauge
		"1 running",     // batch aggregate
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	if len(st.rates) != 1 {
		t.Errorf("rate history = %v, want one sample", st.rates)
	}
}
