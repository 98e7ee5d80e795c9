package runner

import (
	"sync"
	"sync/atomic"
	"time"

	"prioplus/internal/obs"
)

// Run states, in lifecycle order.
const (
	// StatusPending means the task has been registered but not started.
	StatusPending int32 = iota
	// StatusRunning means the task's Run function is executing.
	StatusRunning
	// StatusDone means the task completed successfully.
	StatusDone
	// StatusFailed means the task panicked, timed out, or errored.
	StatusFailed
)

// statusNames maps run states to their wire names.
var statusNames = [...]string{"pending", "running", "done", "failed"}

// StatusName returns the wire name of a run status.
func StatusName(s int32) string {
	if s < 0 || int(s) >= len(statusNames) {
		return "unknown"
	}
	return statusNames[s]
}

// RunEntry is the live, concurrently readable state of one batch run. The
// owning worker goroutine writes it (Start/SetPhase/Finish, plus the
// sampling hook storing into Live); HTTP handler goroutines read it via
// Snapshot. All mutable fields are atomics, so neither side blocks the
// other.
type RunEntry struct {
	// Name is the task name ("fig11/seed=3"); Experiment and Seed are its
	// parsed identity. Index is the task's position in the batch. All four
	// are immutable after RunTable.Add.
	Name       string
	Experiment string
	Seed       int64
	Index      int

	// Live holds the in-run progress gauges, updated by the harness
	// sampling hook (wired via obs.Recorder.Live).
	Live obs.LiveRun

	status  atomic.Int32
	phase   atomic.Pointer[string]
	errMsg  atomic.Pointer[string]
	startNS atomic.Int64
	endNS   atomic.Int64
}

// Start marks the run as executing.
func (s *RunEntry) Start() {
	s.startNS.Store(time.Now().UnixNano())
	s.status.Store(StatusRunning)
}

// SetPhase publishes a short label of what the run is currently doing
// (e.g. the recorder tag of the sub-experiment in flight).
func (s *RunEntry) SetPhase(phase string) {
	s.phase.Store(&phase)
}

// Finish marks the run complete; errMsg empty means success.
func (s *RunEntry) Finish(errMsg string) {
	s.endNS.Store(time.Now().UnixNano())
	if errMsg != "" {
		s.errMsg.Store(&errMsg)
		s.status.Store(StatusFailed)
		return
	}
	s.status.Store(StatusDone)
}

// RunSnapshot is a point-in-time JSON-ready copy of a RunEntry.
type RunSnapshot struct {
	// Name, Experiment, Seed, Index echo the task identity.
	Name       string `json:"name"`
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Index      int    `json:"index"`
	// Status is the lifecycle state name; Phase the last SetPhase label;
	// Err the failure message for failed runs.
	Status string `json:"status"`
	Phase  string `json:"phase,omitempty"`
	Err    string `json:"err,omitempty"`
	// Events is the engine events dispatched so far; EventsPerSec is that
	// averaged over the run's wall time so far. SimUS is the simulated
	// clock in microseconds, WallMS the wall-clock run time so far.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	SimUS        float64 `json:"sim_us"`
	WallMS       float64 `json:"wall_ms"`
	// InflightBytes / HeapEvents / WatchdogLimit expose the flight gauges;
	// WatchdogPct is InflightBytes as a share of WatchdogLimit (0 when no
	// watchdog is armed).
	InflightBytes int64   `json:"inflight_bytes"`
	HeapEvents    int64   `json:"heap_events"`
	WatchdogLimit int64   `json:"watchdog_limit,omitempty"`
	WatchdogPct   float64 `json:"watchdog_pct,omitempty"`
}

// Snapshot copies the state at one instant.
func (s *RunEntry) Snapshot() RunSnapshot {
	snap := RunSnapshot{
		Name:       s.Name,
		Experiment: s.Experiment,
		Seed:       s.Seed,
		Index:      s.Index,
		Status:     StatusName(s.status.Load()),
		Events:     s.Live.Events.Load(),
		SimUS:      float64(s.Live.SimPS.Load()) / 1e6,
	}
	if p := s.phase.Load(); p != nil {
		snap.Phase = *p
	}
	if e := s.errMsg.Load(); e != nil {
		snap.Err = *e
	}
	if start := s.startNS.Load(); start > 0 {
		end := s.endNS.Load()
		if end == 0 {
			end = time.Now().UnixNano()
		}
		if wall := end - start; wall > 0 {
			snap.WallMS = float64(wall) / 1e6
			snap.EventsPerSec = float64(snap.Events) / (float64(wall) / 1e9)
		}
	}
	snap.InflightBytes = s.Live.InflightBytes.Load()
	snap.HeapEvents = s.Live.HeapEvents.Load()
	if limit := s.Live.WatchdogLimit.Load(); limit > 0 {
		snap.WatchdogLimit = limit
		snap.WatchdogPct = 100 * float64(snap.InflightBytes) / float64(limit)
	}
	return snap
}

// RunTable tracks runs for the live endpoints. A batch adds every run up
// front; the job server adds one per computed job and removes it when the
// job ages out of its table. The slice is guarded by the mutex, and the
// states it points to are individually thread-safe.
type RunTable struct {
	mu    sync.Mutex
	runs  []*RunEntry
	added int // runs ever added: the next Index
}

// Add registers a run and returns its state handle.
func (g *RunTable) Add(name, experiment string, seed int64) *RunEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := &RunEntry{Name: name, Experiment: experiment, Seed: seed, Index: g.added}
	g.added++
	g.runs = append(g.runs, st)
	return st
}

// Remove forgets a run, so a long-lived server's run table stays bounded.
func (g *RunTable) Remove(st *RunEntry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, r := range g.runs {
		if r == st {
			g.runs = append(g.runs[:i], g.runs[i+1:]...)
			return
		}
	}
}

// Runs returns the registered run states in registration order.
func (g *RunTable) Runs() []*RunEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*RunEntry(nil), g.runs...)
}

// Snapshot copies every run's state at one instant, in registration order.
func (g *RunTable) Snapshot() []RunSnapshot {
	runs := g.Runs()
	out := make([]RunSnapshot, len(runs))
	for i, r := range runs {
		out[i] = r.Snapshot()
	}
	return out
}
