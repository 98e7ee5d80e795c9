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

	// errCanceled fails the run state of a computation skipped because
	// every job that asked for it was canceled.
	errCanceled = errors.New(JobCanceled)
)

// Config sizes a Scheduler.
type Config struct {
	// Workers is the number of concurrent runs (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued computations; a submission
	// that would start one beyond it fails with ErrQueueFull, while a job
	// that joins one holds no slot (<= 0 means DefaultQueueDepth).
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
	// RunTable, when non-nil, receives a RunEntry per computation so the
	// streaming server's /runs endpoint and the watch dashboard see
	// server-run jobs exactly like batch runs.
	RunTable *runner.RunTable
	// Hub, when non-nil, receives artifact lines of jobs submitted with
	// Artifact set, for /events subscribers.
	Hub *stream.Hub
}

// Scheduler owns the job table, the worker pool and the result cache. All
// exported methods are safe for concurrent use.
//
// A cache key has at most one computation in flight, which answers every
// job that asked for the key:
//   - a job joins while its key is queued or running, and takes its status;
//   - a computation whose jobs were all canceled before it started is
//     skipped, and its /runs entry reads failed with "canceled" once the
//     pool reaches it; one that runs finishes with its own outcome;
//   - a job stays in the table while a computation of its key is in
//     flight, so /runs never drops a queued or running entry;
//   - Cancel accepts only queued jobs.
type Scheduler struct {
	cfg  Config
	pool *runner.Pool

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	inflight map[string]*computation // by cache key
	cache    *cache.Cache[cacheEntry]
	seq      int
	hits     uint64
	misses   uint64
}

// cacheEntry is one memoized result: everything a hit needs to reproduce
// the original response byte-for-byte. The cache is keyed by the full
// determinism tuple (see cacheKey); a job whose spec is still computing
// joins that computation in Scheduler.inflight instead.
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
		inflight: map[string]*computation{},
		cache:    cache.New[cacheEntry](cfg.CacheSize),
	}
}

// Close stops intake and waits for in-flight jobs to finish (or time out).
func (s *Scheduler) Close() {
	s.pool.Close()
}

// Submit validates and admits one job. A cache hit is done at once; a job
// whose key is queued or running joins that computation and takes its
// status; a fresh spec starts a computation on the pool. ErrQueueFull
// reports backpressure; ErrUnknownExperiment a bad id.
func (s *Scheduler) Submit(spec JobSpec) (JobSnapshot, error) {
	if _, ok := exp.Lookup(spec.Experiment); !ok {
		return JobSnapshot{}, fmt.Errorf("%w %q", ErrUnknownExperiment, spec.Experiment)
	}
	key := cacheKey(spec, s.cfg.Manifest)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &job{id: fmt.Sprintf("j%d", s.seq), spec: spec, key: key, cache: "hit", submitted: time.Now()}

	// Deterministic runs memoize: an identical finished spec is returned
	// from the cache byte-for-byte, with no recompute.
	if e, ok := s.cache.Get(key); ok {
		s.hits++
		j.status, j.cacheEntry = JobDone, e
		s.admit(j)
		return j.snapshot(), nil
	}
	if c := s.inflight[key]; c != nil && c.status != JobCanceled {
		s.hits++
		j.status = c.status
		c.jobs = append(c.jobs, j)
		s.admit(j)
		return j.snapshot(), nil
	}

	// Fresh spec. It is counted and registered only once the pool has
	// accepted it, so a refused submit leaves no pending run and no miss
	// behind. The worker's compute blocks on s.mu, held here, so it cannot
	// see c before c.state is set.
	j.cache, j.status = "miss", JobQueued
	c := &computation{key: key, spec: spec, status: JobQueued, jobs: []*job{j}}
	name := fmt.Sprintf("%s:%s/seed=%d", j.id, spec.Experiment, spec.Params.Seed)
	task := runner.Task{Name: name, Run: func() (string, map[string]float64) {
		return s.compute(c)
	}}
	if !s.pool.TrySubmit(task, func(r runner.Result) { s.complete(c, r) }) {
		return JobSnapshot{}, ErrQueueFull
	}
	s.misses++
	if s.cfg.RunTable != nil {
		c.state = s.cfg.RunTable.Add(name, spec.Experiment, spec.Params.Seed)
		j.run = c.state
	} else {
		c.state = &runner.RunEntry{Name: name, Experiment: spec.Experiment, Seed: spec.Params.Seed}
	}
	s.inflight[key] = c
	s.admit(j)
	return j.snapshot(), nil
}

// admit records an accepted job in the table and, past RetainedJobs, drops
// the oldest jobs whose key is not in flight (every queued or running
// job's key is), with the /runs entries they registered. Caller holds s.mu.
func (s *Scheduler) admit(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for i := 0; i < len(s.order) && len(s.order) > RetainedJobs; {
		old := s.jobs[s.order[i]]
		if s.inflight[old.key] != nil {
			i++
			continue
		}
		delete(s.jobs, old.id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		if old.run != nil {
			s.cfg.RunTable.Remove(old.run)
		}
	}
}

// compute runs a computation on a pool worker unless none of its jobs is
// still queued. The rendered output travels back through the runner
// result; artifacts and the experiment's error ride on c.
func (s *Scheduler) compute(c *computation) (string, map[string]float64) {
	s.mu.Lock()
	for _, j := range c.jobs {
		if j.status == JobQueued {
			j.status, c.status = JobRunning, JobRunning
		}
	}
	if c.status != JobRunning {
		c.status, c.err = JobCanceled, errCanceled
		s.mu.Unlock()
		return "", nil
	}
	s.mu.Unlock()
	c.state.Start()

	// The server's instrument set: the digest chain always, so the output
	// carries the "# fingerprint" lines the CLI prints with -fingerprint,
	// and the series when the spec asked for an artifact.
	var buf bytes.Buffer
	runs, err := Execute(c.spec.Experiment, c.spec.Params, Instruments{
		Fingerprint: true,
		Series:      c.spec.Artifact,
		Hub:         s.cfg.Hub,
		Live:        c.state,
	}, nil, &buf)
	var arts []Artifact
	if err == nil && c.spec.Artifact {
		for _, r := range runs {
			arts = append(arts, Artifact{Stem: r.Stem, Lines: r.Lines})
		}
	}

	s.mu.Lock()
	c.artifacts, c.err = arts, err
	s.mu.Unlock()
	return buf.String(), nil
}

// complete ends a computation from its pool result: it classifies the
// outcome, cross-checks the manifest and caches a success once, finishes
// the run state, and finishes every job that was not canceled.
func (s *Scheduler) complete(c *computation, r runner.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[c.key] == c { // a skipped one may have been replaced
		delete(s.inflight, c.key)
	}

	errMsg := ""
	switch {
	case r.Err != nil:
		errMsg = r.Err.Error()
	case c.err != nil:
		errMsg = c.err.Error()
	}
	// Manifest cross-check: a run the committed manifest covers must
	// reproduce its recorded fingerprint — the determinism contract,
	// enforced at serve time. A run it does not cover is unchecked.
	fp := OutputFingerprint(r.Output)
	if errMsg == "" && s.cfg.Manifest != nil {
		name := fmt.Sprintf("%s/seed=%d", c.spec.Experiment, c.spec.Params.Seed)
		if err := s.cfg.Manifest.Check(name, c.spec.Params, fp); err != nil && !errors.Is(err, ErrNotInManifest) {
			errMsg = "determinism violation: " + err.Error()
		}
	}
	e := cacheEntry{wallMS: float64(r.Wall.Microseconds()) / 1000, events: c.state.Live.Events.Load()}
	if errMsg == "" {
		e.output, e.fp, e.artifacts = r.Output, fp, c.artifacts
		s.cache.Put(c.key, e)
	}
	c.state.Finish(errMsg)

	for _, j := range c.jobs {
		if j.status == JobCanceled {
			continue
		}
		j.cacheEntry, j.status, j.errMsg = e, JobDone, errMsg
		if errMsg != "" {
			j.status = JobFailed
		}
	}
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
	for _, c := range s.inflight {
		if c.status == JobQueued {
			out.Queue.Depth++
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		out.Jobs = append(out.Jobs, j.snapshot())
		switch j.status {
		case JobQueued:
			out.Counts.Queued++
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
