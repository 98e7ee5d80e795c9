// Package serve turns the simulator into a long-running job service: a
// bounded scheduler that accepts experiment specs (an exp registry id plus
// serializable RunParams), multiplexes them over the runner pool with
// panic isolation and per-job timeouts, and memoizes finished runs in a
// deterministic result cache. The HTTP surface (see http.go and
// docs/API.md) mounts on the PR 8 streaming server, so /metrics, /runs,
// and /events keep working unchanged for server-run jobs — a job is just
// a batch run somebody POSTed.
//
// Determinism is the load-bearing property: every job arms the event
// digest chain, so a job's captured output is byte-identical to the CLI's
// `prioplus-sim <id> -fingerprint` run of the same spec, the cache can
// return stored bytes as if the run had happened, and results for specs
// covered by the committed fingerprint manifest are cross-checked against
// it before they are declared done.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"prioplus/internal/cache"
	"prioplus/internal/exp"
	"prioplus/internal/obs"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
)

// Default sizing for the scheduler's bounded structures.
const (
	// DefaultQueueDepth is the job queue bound when Config leaves it zero.
	DefaultQueueDepth = 64
	// DefaultCacheSize is the result cache entry bound when Config leaves
	// it zero.
	DefaultCacheSize = 64
	// RetainedJobs bounds the job table: beyond it the oldest finished jobs
	// (and their run states in Config.RunTable) are dropped, so a result
	// evicted from the cache is not pinned by its job record forever.
	// Queued and running jobs are never dropped.
	RetainedJobs = 4 * DefaultCacheSize
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrUnknownExperiment rejects a spec whose id is not in the registry.
	ErrUnknownExperiment = errors.New("unknown experiment")
	// ErrQueueFull reports backpressure: the bounded job queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("job queue full")
	// ErrNotFound reports an unknown job id, or one whose finished job has
	// aged out of the table (see RetainedJobs).
	ErrNotFound = errors.New("no such job")
	// ErrNotCancelable reports a cancel on a job that already left the
	// queue: running jobs are uninterruptible simulation loops, finished
	// jobs are history.
	ErrNotCancelable = errors.New("job is not queued; only queued jobs can be canceled")
	// ErrNotFinished reports a result fetch on a job still queued/running.
	ErrNotFinished = errors.New("job has not finished")
)

// Config sizes a Scheduler.
type Config struct {
	// Workers is the number of concurrent runs (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-not-yet-running jobs;
	// submissions beyond it fail with ErrQueueFull (<= 0 means
	// DefaultQueueDepth).
	QueueDepth int
	// Timeout bounds each job's wall clock (0 = none). A job that exceeds
	// it is abandoned and reported failed.
	Timeout time.Duration
	// CacheSize bounds the result cache (entries, FIFO eviction; <= 0
	// means DefaultCacheSize).
	CacheSize int
	// Manifest, when non-nil, cross-checks finished runs covered by the
	// committed fingerprint manifest and folds the manifest identity into
	// cache keys.
	Manifest *Manifest
	// RunTable, when non-nil, receives a RunEntry per computed job so the
	// streaming server's /runs endpoint and the watch dashboard see
	// server-run jobs exactly like batch runs.
	RunTable *runner.RunTable
	// Hub, when non-nil, receives artifact lines of jobs submitted with
	// Artifact set, for /events subscribers.
	Hub *stream.Hub
}

// Scheduler owns the job table, the worker pool and the result cache. All
// exported methods are safe for concurrent use.
type Scheduler struct {
	cfg  Config
	pool *runner.Pool

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	inflight map[string]*job // cache key -> computing leader
	cache    *cache.Cache[cacheEntry]
	seq      int
	hits     uint64
	misses   uint64
}

// cacheEntry is one memoized job: everything a hit needs to reproduce the
// original response byte-for-byte. The cache is keyed by the full
// determinism tuple (see cacheKey); an identical spec still computing is
// joined as a follower (Submit), not through the cache's own single-flight,
// because a follower is a job with its own id and lifecycle.
type cacheEntry struct {
	output    string
	fp        string
	artifacts []Artifact
	wallMS    float64
	events    uint64
}

// New builds a scheduler and starts its worker pool.
func New(cfg Config) *Scheduler {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	return &Scheduler{
		cfg:      cfg,
		pool:     runner.NewPool(cfg.Workers, cfg.QueueDepth, cfg.Timeout),
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
		cache:    cache.New[cacheEntry](cfg.CacheSize),
	}
}

// Close stops intake and waits for in-flight jobs to finish (or time out).
func (s *Scheduler) Close() {
	s.pool.Close()
}

// Submit validates and enqueues one job. The returned snapshot reflects
// the job's state at admission: a cache hit is already done, a follower of
// an identical in-flight job is queued behind it without a second compute,
// and a fresh spec is queued for the pool. ErrQueueFull reports
// backpressure; ErrUnknownExperiment a bad id.
func (s *Scheduler) Submit(spec JobSpec) (JobSnapshot, error) {
	if _, ok := exp.Lookup(spec.Experiment); !ok {
		return JobSnapshot{}, fmt.Errorf("%w %q", ErrUnknownExperiment, spec.Experiment)
	}
	key := cacheKey(spec, s.cfg.Manifest)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%d", s.seq),
		spec:      spec,
		key:       key,
		status:    JobQueued,
		submitted: time.Now(),
	}

	// Deterministic runs memoize: an identical finished spec is returned
	// from the cache byte-for-byte, with no recompute.
	if e, ok := s.cache.Get(key); ok {
		s.hits++
		j.cache = "hit"
		j.status = JobDone
		j.cacheEntry = e
		j.finishedAt = time.Now()
		s.admit(j)
		return j.snapshot(), nil
	}

	// An identical spec already computing: attach as a follower — one
	// compute serves both, and the follower finishes when the leader does.
	if leader, ok := s.inflight[key]; ok {
		s.hits++
		j.cache = "hit"
		leader.followers = append(leader.followers, j)
		s.admit(j)
		return j.snapshot(), nil
	}

	// Fresh spec: this job leads the computation. It is counted and
	// registered only once the pool has accepted it, so a refused submit
	// leaves no pending run and no miss behind. The worker's compute blocks
	// on s.mu, which is held here, so it cannot see j before j.state is set.
	j.cache = "miss"
	name := fmt.Sprintf("%s:%s/seed=%d", j.id, spec.Experiment, spec.Params.Seed)
	task := runner.Task{Name: name, Run: func() (string, map[string]float64) {
		return s.compute(j)
	}}
	if !s.pool.TrySubmit(task, func(r runner.Result) { s.complete(j, r) }) {
		return JobSnapshot{}, ErrQueueFull
	}
	s.misses++
	if s.cfg.RunTable != nil {
		j.state = s.cfg.RunTable.Add(name, spec.Experiment, spec.Params.Seed)
	} else {
		j.state = &runner.RunEntry{Name: name, Experiment: spec.Experiment, Seed: spec.Params.Seed}
	}
	s.inflight[key] = j
	s.admit(j)
	return j.snapshot(), nil
}

// admit records an accepted job in the table and, past RetainedJobs, drops
// the oldest finished ones. A canceled leader whose compute is still owed
// to its followers stays until it completes. Caller holds s.mu.
func (s *Scheduler) admit(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for i := 0; i < len(s.order) && len(s.order) > RetainedJobs; {
		old := s.jobs[s.order[i]]
		if !old.finished() || s.inflight[old.key] == old {
			i++
			continue
		}
		delete(s.jobs, old.id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		if old.state != nil && s.cfg.RunTable != nil {
			s.cfg.RunTable.Remove(old.state)
		}
	}
}

// compute runs the experiment for a leader job on a pool worker. The
// rendered output travels back through the runner result; artifacts and
// the experiment-level error ride on the job under the lock.
func (s *Scheduler) compute(j *job) (string, map[string]float64) {
	s.mu.Lock()
	if j.status == JobCanceled && len(j.followers) == 0 {
		// Canceled while queued with nobody waiting: skip the work. (A
		// canceled leader with followers still computes — the followers
		// paid for the result.)
		j.skipped = true
		s.mu.Unlock()
		return "", nil
	}
	if j.status == JobQueued {
		j.status = JobRunning
	}
	s.mu.Unlock()
	j.state.Start()

	// The server's instrument set: the digest chain always, so the output
	// carries the "# fingerprint" lines the CLI prints with -fingerprint,
	// and the series when the spec asked for an artifact.
	var buf bytes.Buffer
	runs, err := Execute(j.spec.Experiment, j.spec.Params, Instruments{
		Fingerprint: true,
		Series:      j.spec.Artifact,
		Hub:         s.cfg.Hub,
		Live:        j.state,
	}, nil, &buf)
	var arts []Artifact
	if err == nil && j.spec.Artifact {
		for _, r := range runs {
			arts = append(arts, Artifact{Stem: r.Stem, Lines: r.Lines})
		}
	}

	s.mu.Lock()
	if !j.finished() {
		j.artifacts = arts
		j.runErr = err
	}
	s.mu.Unlock()
	return buf.String(), nil
}

// complete finalizes a leader job from its pool result: classify the
// outcome, cross-check the manifest, populate the cache, and release any
// followers.
func (s *Scheduler) complete(j *job, r runner.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.finished() && j.status != JobCanceled {
		return // already finalized (defensive; the pool calls once)
	}

	errMsg := ""
	switch {
	case r.Err != nil:
		errMsg = r.Err.Error()
	case j.runErr != nil:
		errMsg = j.runErr.Error()
	}

	success := errMsg == "" && !j.skipped
	var fp string
	if success {
		fp = OutputFingerprint(r.Output)
		// Manifest cross-check: a run the committed manifest covers must
		// reproduce its recorded fingerprint — the determinism contract,
		// enforced at serve time. A run it does not cover is unchecked.
		if s.cfg.Manifest != nil {
			name := fmt.Sprintf("%s/seed=%d", j.spec.Experiment, j.spec.Params.Seed)
			if err := s.cfg.Manifest.Check(name, j.spec.Params, fp); err != nil && !errors.Is(err, ErrNotInManifest) {
				success = false
				errMsg = "determinism violation: " + err.Error()
			}
		}
	}

	j.wallMS = float64(r.Wall.Microseconds()) / 1000
	j.events = j.state.Live.Events.Load()
	if success {
		j.output, j.fp = r.Output, fp
		s.cache.Put(j.key, j.cacheEntry)
	} else {
		j.artifacts = nil
	}

	finalize := func(target *job) {
		if target.status == JobCanceled {
			return
		}
		if success {
			target.status = JobDone
		} else {
			target.status = JobFailed
			target.errMsg = errMsg
		}
		target.finishedAt = time.Now()
	}
	finalize(j)
	if j.status != JobCanceled {
		// A canceled leader's RunEntry was already finished ("canceled")
		// by Cancel; don't overwrite that with the compute outcome.
		j.state.Finish(errMsg)
	}

	// Followers inherit the leader's outcome, bytes included.
	for _, f := range j.followers {
		if f.status == JobCanceled {
			continue
		}
		if success {
			f.cacheEntry = j.cacheEntry
		}
		finalize(f)
	}
	j.followers = nil
	delete(s.inflight, j.key)
}

// Cancel cancels a queued job. Running jobs are uninterruptible
// (simulation loops do not preempt) and finished jobs are immutable; both
// return ErrNotCancelable.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.status != JobQueued {
		return ErrNotCancelable
	}
	j.status = JobCanceled
	j.finishedAt = time.Now()
	if j.state != nil {
		j.state.Finish("canceled")
	}
	return nil
}

// Job returns one job's snapshot.
func (s *Scheduler) Job(id string) (JobSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobSnapshot{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// Result returns a finished job's full result (output, artifacts, metrics,
// fingerprint). ErrNotFinished reports a job still queued or running.
func (s *Scheduler) Result(id string) (JobResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobResult{}, ErrNotFound
	}
	if !j.finished() {
		return JobResult{}, ErrNotFinished
	}
	res := JobResult{
		ID:         j.id,
		Experiment: j.spec.Experiment,
		Params:     j.spec.Params,
		Status:     j.status,
		Cache:      j.cache,
		FP:         j.fp,
		Output:     j.output,
		Err:        j.errMsg,
		Artifacts:  j.artifacts,
		Metrics:    map[string]float64{"wall_ms": j.wallMS, "events": float64(j.events)},
	}
	return res, nil
}

// Jobs returns the full job table with aggregate counters, submission
// order preserved — the /jobs payload the watch dashboard renders.
func (s *Scheduler) Jobs() JobsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := JobsSnapshot{Queue: QueueStats{Capacity: s.cfg.QueueDepth}}
	out.Cache = CacheStats{Entries: s.cache.Len(), Hits: s.hits, Misses: s.misses}
	for _, id := range s.order {
		j := s.jobs[id]
		out.Jobs = append(out.Jobs, j.snapshot())
		switch j.status {
		case JobQueued:
			out.Counts.Queued++
			out.Queue.Depth++
		case JobRunning:
			out.Counts.Running++
		case JobDone:
			out.Counts.Done++
		case JobFailed:
			out.Counts.Failed++
		case JobCanceled:
			out.Counts.Canceled++
		}
	}
	return out
}

// Experiments enumerates the registry for the /experiments endpoint.
func Experiments() []ExperimentInfo {
	specs := exp.Specs()
	out := make([]ExperimentInfo, 0, len(specs))
	for _, sp := range specs {
		out = append(out, ExperimentInfo{ID: sp.ID, Describe: sp.Describe, Defaults: sp.Defaults})
	}
	return out
}

// ExperimentInfo is one /experiments entry.
type ExperimentInfo struct {
	// ID and Describe echo the registered spec; Defaults are the params an
	// empty submission gets.
	ID       string        `json:"id"`
	Describe string        `json:"describe"`
	Defaults exp.RunParams `json:"defaults"`
}

// cacheKey binds a result to everything that determines its bytes: the
// experiment id, the canonicalized parameters, whether an artifact was
// recorded, the artifact schema version, and the identity of the
// fingerprint manifest the run was checked against. Canonical() makes the
// key invariant under JSON field order and explicitly-spelled defaults.
func cacheKey(spec JobSpec, m *Manifest) string {
	mh := "none"
	if m != nil {
		mh = m.Hash()
	}
	return fmt.Sprintf("%s|%s|artifact=%t|av=%d|manifest=%s",
		spec.Experiment, spec.Params.Canonical(), spec.Artifact, obs.ArtifactVersion, mh)
}
