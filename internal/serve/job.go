package serve

import (
	"time"

	"prioplus/internal/exp"
	"prioplus/internal/runner"
)

// Job lifecycle states. A job is finished once it reaches done, failed, or
// canceled; only finished jobs have a result.
const (
	// JobQueued means admitted but not yet on a worker.
	JobQueued = "queued"
	// JobRunning means a worker is computing it.
	JobRunning = "running"
	// JobDone means it finished successfully; the result is available.
	JobDone = "done"
	// JobFailed means the run errored, panicked, timed out, or failed the
	// manifest cross-check.
	JobFailed = "failed"
	// JobCanceled means it was canceled while still queued.
	JobCanceled = "canceled"
)

// JobSpec is what a client submits: a registry experiment id, its
// serializable parameters, and whether to record a streaming artifact.
// The HTTP layer fills Params by strict-decoding the request's params
// object over the experiment's registered defaults (exp.DecodeParams), so
// an empty submission runs the spec's defaults and an unknown field is a
// 400, not a silent no-op.
type JobSpec struct {
	// Experiment is the exp registry id (e.g. "fig10b").
	Experiment string `json:"experiment"`
	// Params are the run parameters after defaulting.
	Params exp.RunParams `json:"params"`
	// Artifact, when set, arms the timeline series instrument and streams
	// the run's artifact lines to /events subscribers; the captured lines
	// also come back in the job result.
	Artifact bool `json:"artifact,omitempty"`
}

// job is the scheduler's record of one submission. All fields are guarded
// by Scheduler.mu.
type job struct {
	id     string
	spec   JobSpec
	key    string // cache key
	status string
	cache  string // "hit" or "miss"
	errMsg string
	// The result: a done job answers with it and the cache memoizes it.
	cacheEntry

	submitted time.Time
	// run is the RunTable entry named after this job, when its submit
	// started a computation; it leaves /runs when the job ages out.
	run *runner.RunEntry
}

// computation is one queued or running run of a cache key. It owns the
// run state and the outcome, and every job that asked for the key while it
// was in flight shares them. Fields other than state's atomics are guarded
// by Scheduler.mu.
type computation struct {
	key    string
	spec   JobSpec
	status string // JobQueued, JobRunning, or JobCanceled once skipped
	state  *runner.RunEntry
	jobs   []*job // every job it answers, canceled ones included

	artifacts []Artifact
	err       error // the experiment's own error
}

// finished reports whether the job reached a terminal state.
func (j *job) finished() bool {
	switch j.status {
	case JobDone, JobFailed, JobCanceled:
		return true
	}
	return false
}

// snapshot renders the job for /jobs. Caller holds Scheduler.mu.
func (j *job) snapshot() JobSnapshot {
	s := JobSnapshot{
		ID:              j.id,
		Experiment:      j.spec.Experiment,
		Params:          j.spec.Params,
		Artifact:        j.spec.Artifact,
		Status:          j.status,
		Cache:           j.cache,
		FP:              j.fp,
		Err:             j.errMsg,
		SubmittedUnixMS: j.submitted.UnixMilli(),
		WallMS:          j.wallMS,
		Events:          j.events,
	}
	return s
}

// JobSnapshot is one job's public state, as served by /jobs and returned
// from submission.
type JobSnapshot struct {
	// ID is the scheduler-assigned job id ("j1", "j2", ...).
	ID string `json:"id"`
	// Experiment and Params echo the submitted spec after defaulting.
	Experiment string        `json:"experiment"`
	Params     exp.RunParams `json:"params"`
	// Artifact echoes the spec's artifact flag.
	Artifact bool `json:"artifact,omitempty"`
	// Status is one of queued/running/done/failed/canceled.
	Status string `json:"status"`
	// Cache is "hit" (served from the cache or joined an identical
	// in-flight computation) or "miss" (this job started the computation).
	Cache string `json:"cache,omitempty"`
	// FP is the run fingerprint (%016x FNV-64a of the output), set once
	// done.
	FP string `json:"fp,omitempty"`
	// Err is the failure message for failed jobs.
	Err string `json:"error,omitempty"`
	// SubmittedUnixMS is the admission wall-clock in Unix milliseconds.
	SubmittedUnixMS int64 `json:"submitted_unix_ms"`
	// WallMS and Events are the compute cost (cached values for hits).
	WallMS float64 `json:"wall_ms,omitempty"`
	Events uint64  `json:"events,omitempty"`
}

// JobsSnapshot is the /jobs payload: every job in submission order plus
// aggregate counters. The watch dashboard decodes this struct.
type JobsSnapshot struct {
	// Jobs lists each job, oldest first.
	Jobs []JobSnapshot `json:"jobs"`
	// Counts tallies jobs by status.
	Counts JobCounts `json:"counts"`
	// Queue reports backpressure state.
	Queue QueueStats `json:"queue"`
	// Cache reports result-cache effectiveness.
	Cache CacheStats `json:"cache"`
}

// JobCounts tallies jobs by status.
type JobCounts struct {
	// Queued..Canceled count jobs currently in each state.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

// QueueStats reports the bounded queue's occupancy.
type QueueStats struct {
	// Depth is the number of queued computations (pool slots held; a job
	// that joins one holds none); Capacity the configured bound past which
	// submissions get 429.
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// CacheStats reports the result cache's counters.
type CacheStats struct {
	// Entries is the current cache population; Hits and Misses are
	// lifetime submission counters (a job that joins an in-flight
	// computation counts as a hit).
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// JobResult is the /jobs/{id}/result payload: the run's full output and
// everything needed to verify it.
type JobResult struct {
	// ID, Experiment, Params, Status, Cache mirror the snapshot.
	ID         string        `json:"id"`
	Experiment string        `json:"experiment"`
	Params     exp.RunParams `json:"params"`
	Status     string        `json:"status"`
	Cache      string        `json:"cache,omitempty"`
	// FP is the output fingerprint; byte-identical reruns produce the same
	// value, and cache hits return the stored one.
	FP string `json:"fp,omitempty"`
	// Output is the experiment's rendered text, byte-identical to the CLI
	// running the same spec with -fingerprint.
	Output string `json:"output"`
	// Err is the failure message for failed jobs.
	Err string `json:"error,omitempty"`
	// Metrics carries wall_ms and events for the computing run.
	Metrics map[string]float64 `json:"metrics"`
	// Artifacts holds the streamed artifact lines when the spec asked for
	// them, one entry per run tag.
	Artifacts []Artifact `json:"artifacts,omitempty"`
}

// Artifact is one run's captured artifact stream.
type Artifact struct {
	// Stem is the canonical artifact basename (obs.ArtifactStem), the same
	// id /events subscribers saw the lines under.
	Stem string `json:"stem"`
	// Lines is the raw JSONL artifact content.
	Lines string `json:"lines"`
}
