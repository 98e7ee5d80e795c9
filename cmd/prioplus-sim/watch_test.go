package main

import (
	"strings"
	"testing"

	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/serve"
)

// TestWatchOnceAgainstLiveServer drives `watch -once` end to end against a
// real -listen server that has zero runs registered: one frame, exit 0,
// no panic. An unreachable address exits 1 immediately under -once.
func TestWatchOnceAgainstLiveServer(t *testing.T) {
	runs := &runner.RunTable{}
	srv := stream.NewServer(runs)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code := runWatch([]string{"-once", srv.Addr()}); code != 0 {
		t.Errorf("watch -once against empty server exited %d, want 0", code)
	}

	if code := runWatch([]string{"-once", "127.0.0.1:1"}); code != 1 {
		t.Errorf("watch -once against dead address exited %d, want 1", code)
	}
	if code := runWatch([]string{"-once"}); code != 2 {
		t.Errorf("watch -once without ADDR exited %d, want 2", code)
	}
}

// TestWatchRenderJobsLine: a /jobs snapshot adds the jobs/cache line; a
// nil snapshot (server without the endpoint) omits it — the degradation
// path for watching a pre-serve server.
func TestWatchRenderJobsLine(t *testing.T) {
	var st watchState
	jobs := &serve.JobsSnapshot{
		Jobs:   make([]serve.JobSnapshot, 3),
		Counts: serve.JobCounts{Queued: 1, Done: 2},
		Queue:  serve.QueueStats{Depth: 1, Capacity: 64},
		Cache:  serve.CacheStats{Entries: 2, Hits: 1, Misses: 2},
	}
	frame := renderWatch(&st, "http://x", stream.MetricsSnapshot{}, stream.RunsSnapshot{}, jobs)
	for _, want := range []string{
		"jobs    3 total: 1 queued, 0 running, 2 done, 0 failed, 0 canceled",
		"queue 1/64",
		"cache 2 entries, 1 hits / 2 misses",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}

	st = watchState{}
	frame = renderWatch(&st, "http://x", stream.MetricsSnapshot{}, stream.RunsSnapshot{}, nil)
	if strings.Contains(frame, "jobs ") {
		t.Errorf("nil jobs snapshot still rendered a jobs line:\n%s", frame)
	}
}

// TestWatchRenderZeroRuns pins the metrics-only frame: with no runs and
// zeroed snapshots the frame renders the gauges, omits the run table, and
// never divides by a zero poll window.
func TestWatchRenderZeroRuns(t *testing.T) {
	var st watchState
	frame := renderWatch(&st, "http://x", stream.MetricsSnapshot{}, stream.RunsSnapshot{}, nil)
	if strings.Contains(frame, "RUN") {
		t.Errorf("frame has a run table with zero runs:\n%s", frame)
	}
	if !strings.Contains(frame, "0 ev/s") {
		t.Errorf("frame missing zero rate:\n%s", frame)
	}

	// A second poll with the identical wall clock must not record a rate
	// sample (dt would be zero) or render NaN/Inf.
	frame = renderWatch(&st, "http://x", stream.MetricsSnapshot{}, stream.RunsSnapshot{}, nil)
	if len(st.rates) != 0 {
		t.Errorf("rate recorded across a zero-length poll window: %v", st.rates)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(frame, bad) {
			t.Errorf("frame contains %s:\n%s", bad, frame)
		}
	}
}

// TestWatchRenderCounterReset: a batch whose event counter goes backwards
// (server restarted between polls) skips the negative-rate sample instead
// of underflowing the unsigned delta.
func TestWatchRenderCounterReset(t *testing.T) {
	var st watchState
	m := stream.MetricsSnapshot{WallUnixMS: 1000}
	runs := stream.RunsSnapshot{}
	runs.Batch.Events = 1_000_000
	renderWatch(&st, "http://x", m, runs, nil)

	m.WallUnixMS = 2000
	runs.Batch.Events = 500 // restarted server: counter reset
	frame := renderWatch(&st, "http://x", m, runs, nil)
	if len(st.rates) != 0 {
		t.Errorf("negative delta recorded as a rate: %v", st.rates)
	}
	if !strings.Contains(frame, "0 ev/s") {
		t.Errorf("frame missing zero rate after reset:\n%s", frame)
	}

	// The next well-ordered poll resumes rate math from the reset base.
	m.WallUnixMS = 3000
	runs.Batch.Events = 1_000_500
	renderWatch(&st, "http://x", m, runs, nil)
	if len(st.rates) != 1 || st.rates[0] != 1e6 {
		t.Errorf("rates after recovery = %v, want [1e6]", st.rates)
	}
}
