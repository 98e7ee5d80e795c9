package serve

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prioplus/internal/cache"
	"prioplus/internal/exp"
	"prioplus/internal/runner"
)

// The shared test experiment: deterministic output, an atomic compute
// counter, and a recorder request so its output carries a fingerprint
// line like a real network experiment. Tests that need to observe a job
// mid-compute register their own gated variant (registerGatedSpec).
var testComputes atomic.Int64

func init() {
	exp.Register(exp.Spec{
		ID:       "testblock",
		Describe: "serve test fixture: counts computes",
		Defaults: exp.RunParams{Seed: 1},
		Run: func(p exp.RunParams, sink exp.Sink, memo *exp.Memo, w io.Writer) error {
			testComputes.Add(1)
			if sink != nil {
				sink.Recorder("t")
			}
			fmt.Fprintf(w, "testblock seed=%d full=%v\n", p.Seed, p.Full)
			return nil
		},
	})
}

// registerGatedSpec registers a one-off experiment whose runs block on the
// returned gate, so a test can hold a job in the running state.
func registerGatedSpec(id string) (gate chan struct{}, computes *atomic.Int64) {
	gate = make(chan struct{})
	computes = &atomic.Int64{}
	exp.Register(exp.Spec{
		ID:       id,
		Describe: "serve test fixture: blocks on a private gate",
		Defaults: exp.RunParams{Seed: 1},
		Run: func(p exp.RunParams, sink exp.Sink, memo *exp.Memo, w io.Writer) error {
			computes.Add(1)
			<-gate
			if sink != nil {
				sink.Recorder("t")
			}
			fmt.Fprintf(w, "%s seed=%d full=%v\n", id, p.Seed, p.Full)
			return nil
		},
	})
	return gate, computes
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, s *Scheduler, id string) JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		switch snap.Status {
		case JobDone, JobFailed, JobCanceled:
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobSnapshot{}
}

// waitStatus polls until the job reaches the given state.
func waitStatus(t *testing.T, s *Scheduler, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestConcurrentIdenticalDedup is the determinism contract under -race:
// two identical specs submitted while the first is still computing yield
// ONE compute (the second attaches as a follower), byte-identical outputs,
// and the same fingerprint; a third submission after completion is a pure
// cache hit with the same bytes again.
func TestConcurrentIdenticalDedup(t *testing.T) {
	gate, computes := registerGatedSpec("testdedup")
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()

	spec := JobSpec{Experiment: "testdedup", Params: exp.RunParams{Seed: 100}}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the leader is actually computing so the second submission
	// must take the follower path, not the cache path.
	waitStatus(t, s, j1.ID, JobRunning)
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Cache != "hit" {
		t.Errorf("concurrent identical submission cache=%q, want hit", j2.Cache)
	}
	close(gate)

	f1, f2 := waitJob(t, s, j1.ID), waitJob(t, s, j2.ID)
	if f1.Status != JobDone || f2.Status != JobDone {
		t.Fatalf("statuses %s/%s, want done/done (%s %s)", f1.Status, f2.Status, f1.Err, f2.Err)
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("%d computes for two identical jobs, want 1", got)
	}
	r1, _ := s.Result(j1.ID)
	r2, _ := s.Result(j2.ID)
	if r1.Output == "" || r1.Output != r2.Output {
		t.Errorf("outputs differ:\n%q\n%q", r1.Output, r2.Output)
	}
	if f1.FP == "" || f1.FP != f2.FP {
		t.Errorf("fingerprints differ: %q vs %q", f1.FP, f2.FP)
	}

	j3, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Status != JobDone || j3.Cache != "hit" || j3.FP != f1.FP {
		t.Errorf("post-completion resubmit: status=%s cache=%s fp=%s, want immediate hit with fp %s",
			j3.Status, j3.Cache, j3.FP, f1.FP)
	}
	r3, _ := s.Result(j3.ID)
	if r3.Output != r1.Output {
		t.Error("cache hit returned different bytes")
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("%d computes after cache hit, want still 1", got)
	}
}

// TestCacheKeyInvariance: params decoded from reordered JSON with defaults
// spelled out hit the cache entry created by the terse spelling.
func TestCacheKeyInvariance(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()

	p1, err := exp.DecodeParams([]byte(`{"seed": 200}`), exp.RunParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s.Submit(JobSpec{Experiment: "testblock", Params: p1})
	if err != nil {
		t.Fatal(err)
	}
	f1 := waitJob(t, s, j1.ID)

	p2, err := exp.DecodeParams([]byte(`{"perturb": 0, "full": false, "seed": 200, "series": false}`), exp.RunParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(JobSpec{Experiment: "testblock", Params: p2})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Status != JobDone || j2.Cache != "hit" || j2.FP != f1.FP {
		t.Errorf("reordered-params resubmit: status=%s cache=%s, want immediate hit", j2.Status, j2.Cache)
	}
}

// TestBackpressure: with one worker occupied and a one-slot queue filled,
// the next submission is refused with ErrQueueFull — leaving no run in the
// run table and no miss on the counter — and succeeds again once the queue
// drains.
func TestBackpressure(t *testing.T) {
	block, _ := registerGatedSpec("testblock2")
	runs := &runner.RunTable{}
	s := New(Config{Workers: 1, QueueDepth: 1, RunTable: runs})
	defer s.Close()

	j1, err := s.Submit(JobSpec{Experiment: "testblock2", Params: exp.RunParams{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j1.ID, JobRunning) // worker occupied, queue empty
	j2, err := s.Submit(JobSpec{Experiment: "testblock2", Params: exp.RunParams{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Experiment: "testblock2", Params: exp.RunParams{Seed: 3}}); err != ErrQueueFull {
		t.Errorf("submit into full queue: err=%v, want ErrQueueFull", err)
	}
	snap := s.Jobs()
	if snap.Queue.Depth != 1 || snap.Queue.Capacity != 1 {
		t.Errorf("queue stats %+v, want depth 1/1", snap.Queue)
	}
	if snap.Cache.Misses != 2 || len(runs.Runs()) != 2 {
		t.Errorf("after a refused submit: %d misses, %d registered runs; want the 2 accepted jobs only",
			snap.Cache.Misses, len(runs.Runs()))
	}
	close(block)
	waitJob(t, s, j1.ID)
	waitJob(t, s, j2.ID)
	if j4, err := s.Submit(JobSpec{Experiment: "testblock2", Params: exp.RunParams{Seed: 4}}); err != nil {
		t.Errorf("submit after drain refused: %v", err)
	} else {
		waitJob(t, s, j4.ID)
	}
}

// TestJobRetention: the job table and the run table keep only the most
// recent RetainedJobs finished jobs, so a result evicted from the cache is
// not pinned by its job record; an aged-out id answers ErrNotFound, and the
// hit/miss counters keep counting.
func TestJobRetention(t *testing.T) {
	runs := &runner.RunTable{}
	s := New(Config{Workers: 1, RunTable: runs})
	defer s.Close()
	const extra = 40
	var first, last JobSnapshot
	for i := 0; i < RetainedJobs+extra; i++ {
		j, err := s.Submit(JobSpec{Experiment: "testblock", Params: exp.RunParams{Seed: int64(1000 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		last = waitJob(t, s, j.ID)
		if i == 0 {
			first = last
		}
	}
	hit, err := s.Submit(JobSpec{Experiment: "testblock", Params: last.Params})
	if err != nil || hit.Cache != "hit" {
		t.Fatalf("resubmit of the newest spec: cache=%q err=%v, want a hit", hit.Cache, err)
	}
	snap := s.Jobs()
	if len(snap.Jobs) != RetainedJobs || snap.Jobs[len(snap.Jobs)-1].ID != hit.ID {
		t.Errorf("job table holds %d jobs, want the newest %d", len(snap.Jobs), RetainedJobs)
	}
	// Every retained job but the hit computed, so each has a run state.
	if n := len(runs.Runs()); n != RetainedJobs-1 {
		t.Errorf("run table holds %d runs, want %d", n, RetainedJobs-1)
	}
	if snap.Cache.Misses != RetainedJobs+extra || snap.Cache.Hits != 1 {
		t.Errorf("counters %d misses / %d hits, want %d / 1", snap.Cache.Misses, snap.Cache.Hits, RetainedJobs+extra)
	}
	if _, err := s.Job(first.ID); err != ErrNotFound {
		t.Errorf("aged-out job: err=%v, want ErrNotFound", err)
	}
	if _, err := s.Result(last.ID); err != nil {
		t.Errorf("newest computed job: %v", err)
	}
}

// TestUnknownExperiment: submission of an unregistered id fails up front.
func TestUnknownExperiment(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(JobSpec{Experiment: "fig99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestCancel: queued jobs cancel; running and finished ones refuse; the
// canceled job never computes.
func TestCancel(t *testing.T) {
	block, computes := registerGatedSpec("testblock3")
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	j1, _ := s.Submit(JobSpec{Experiment: "testblock3", Params: exp.RunParams{Seed: 1}})
	waitStatus(t, s, j1.ID, JobRunning)
	j2, _ := s.Submit(JobSpec{Experiment: "testblock3", Params: exp.RunParams{Seed: 2}})

	if err := s.Cancel(j2.ID); err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if snap, _ := s.Job(j2.ID); snap.Status != JobCanceled {
		t.Errorf("canceled job status %s", snap.Status)
	}
	if err := s.Cancel(j1.ID); err != ErrNotCancelable {
		t.Errorf("cancel running job: err=%v, want ErrNotCancelable", err)
	}
	if err := s.Cancel("nope"); err != ErrNotFound {
		t.Errorf("cancel unknown job: err=%v, want ErrNotFound", err)
	}
	close(block)
	waitJob(t, s, j1.ID)
	if err := s.Cancel(j1.ID); err != ErrNotCancelable {
		t.Errorf("cancel finished job: err=%v, want ErrNotCancelable", err)
	}
	// The canceled job's compute was skipped: exactly one compute (j1).
	s.Close()
	if got := computes.Load(); got != 1 {
		t.Errorf("%d computes, want 1 (canceled job must not run)", got)
	}
	// A canceled job is terminal: Result returns it with status canceled
	// and empty output rather than an error.
	res, rerr := s.Result(j2.ID)
	if rerr != nil || res.Status != JobCanceled || res.Output != "" {
		t.Errorf("result of canceled job: %+v, %v", res, rerr)
	}
}

// TestManifestCrossCheck: a manifest-covered run whose fingerprint
// disagrees with the manifest fails the job with a determinism-violation
// error; an agreeing manifest lets it pass, and the two schedulers use
// distinct cache keys (manifest identity is part of the key).
func TestManifestCrossCheck(t *testing.T) {
	// First learn the true fingerprint.
	s0 := New(Config{Workers: 1})
	j0, _ := s0.Submit(JobSpec{Experiment: "testblock", Params: exp.RunParams{Seed: 300}})
	f0 := waitJob(t, s0, j0.ID)
	s0.Close()
	if f0.Status != JobDone {
		t.Fatalf("probe run failed: %s", f0.Err)
	}

	good := &Manifest{Runs: map[string]string{"testblock/seed=300": f0.FP}}
	sGood := New(Config{Workers: 1, Manifest: good})
	jg, _ := sGood.Submit(JobSpec{Experiment: "testblock", Params: exp.RunParams{Seed: 300}})
	fg := waitJob(t, sGood, jg.ID)
	sGood.Close()
	if fg.Status != JobDone {
		t.Errorf("run under agreeing manifest failed: %s", fg.Err)
	}

	bad := &Manifest{Runs: map[string]string{"testblock/seed=300": "deadbeefdeadbeef"}}
	sBad := New(Config{Workers: 1, Manifest: bad})
	jb, _ := sBad.Submit(JobSpec{Experiment: "testblock", Params: exp.RunParams{Seed: 300}})
	fb := waitJob(t, sBad, jb.ID)
	sBad.Close()
	if fb.Status != JobFailed {
		t.Fatalf("run under disagreeing manifest: status=%s, want failed", fb.Status)
	}
	if want := "determinism violation"; !strings.Contains(fb.Err, want) {
		t.Errorf("failure message %q lacks %q", fb.Err, want)
	}
}

// TestTimeout: a job exceeding the per-job wall-clock ceiling fails with a
// timeout error; the abandoned run goroutine is released at gate close.
func TestTimeout(t *testing.T) {
	block, _ := registerGatedSpec("testblock4")
	defer close(block)
	s := New(Config{Workers: 1, Timeout: 20 * time.Millisecond})
	defer s.Close()
	j, _ := s.Submit(JobSpec{Experiment: "testblock4", Params: exp.RunParams{Seed: 1}})
	f := waitJob(t, s, j.ID)
	if f.Status != JobFailed || !strings.Contains(f.Err, "exceeded timeout") {
		t.Errorf("timed-out job: status=%s err=%q, want failed/timeout", f.Status, f.Err)
	}
}

// TestFig2AgainstCommittedManifest: a real registered experiment run
// through the job server reproduces the committed manifest fingerprint —
// i.e. server bytes == the CLI bytes the manifest was generated from.
func TestFig2AgainstCommittedManifest(t *testing.T) {
	m, err := LoadManifest("../../testdata/fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Manifest: m})
	defer s.Close()
	j, err := s.Submit(JobSpec{Experiment: "fig2", Params: exp.RunParams{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	f := waitJob(t, s, j.ID)
	if f.Status != JobDone {
		t.Fatalf("fig2 job failed: %s", f.Err)
	}
	if want := m.Runs["fig2/seed=1"]; f.FP != want {
		t.Errorf("fig2 fp=%s, manifest has %s", f.FP, want)
	}
	res, err := s.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == "" || OutputFingerprint(res.Output) != f.FP {
		t.Error("result output does not hash to the reported fingerprint")
	}
}

// TestCacheEviction: the job cache holds at most CacheSize entries and
// evicts the oldest.
func TestCacheEviction(t *testing.T) {
	c := cache.New[cacheEntry](2)
	c.Put("a", cacheEntry{fp: "1"})
	c.Put("b", cacheEntry{fp: "2"})
	c.Put("c", cacheEntry{fp: "3"})
	if c.Len() != 2 {
		t.Fatalf("cache len %d, want 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry not evicted")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %q missing", k)
		}
	}
	// Re-put of an existing key updates in place, no eviction.
	c.Put("b", cacheEntry{fp: "2x"})
	if e, _ := c.Get("c"); c.Len() != 2 || e.fp != "3" {
		t.Error("update evicted a live entry")
	}
}
