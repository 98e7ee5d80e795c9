package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"prioplus/internal/obs"
	"prioplus/internal/runner"
	"prioplus/internal/sim"
)

// MetricsSnapshot is the /metrics payload: host-process gauges, simulator
// totals, per-kind cost attribution, and hub statistics, as one JSON
// object. The watch dashboard decodes the same struct.
type MetricsSnapshot struct {
	// WallUnixMS is the server's wall clock, for client-side rate math.
	WallUnixMS int64 `json:"wall_unix_ms"`
	// Runtime holds the host gauges (see obs.HostGauges).
	Runtime RuntimeMetrics `json:"runtime"`
	// Sim holds the process-wide event counters.
	Sim SimMetrics `json:"sim"`
	// Cost lists per-event-kind cost attribution, kinds with samples only.
	Cost []CostMetric `json:"cost"`
	// Stream holds the hub's fan-out counters.
	Stream StreamMetrics `json:"stream"`
}

// RuntimeMetrics is the host-process gauge section of /metrics.
type RuntimeMetrics struct {
	// RSSBytes..Goroutines mirror obs.HostGauges.
	RSSBytes   float64 `json:"rss_bytes"`
	HeapBytes  float64 `json:"heap_bytes"`
	GCCycles   float64 `json:"gc_cycles"`
	GCPauseUS  float64 `json:"gc_pause_us"`
	Goroutines float64 `json:"goroutines"`
}

// SimMetrics is the simulator-totals section of /metrics.
type SimMetrics struct {
	// Events is the logical event count (build-independent basis);
	// EventsDispatched the raw dispatch count. See sim.TotalEvents.
	Events           uint64 `json:"events"`
	EventsDispatched uint64 `json:"events_dispatched"`
}

// CostMetric is one event kind's process-wide cost attribution.
type CostMetric struct {
	// Kind is the event kind name; Samples/Nanos the accumulated stamped
	// dispatches; Share is this kind's fraction of all stamped nanoseconds.
	Kind    string  `json:"kind"`
	Samples int64   `json:"samples"`
	Nanos   int64   `json:"ns"`
	Share   float64 `json:"share"`
}

// StreamMetrics is the hub section of /metrics.
type StreamMetrics struct {
	// Subscribers is the current /events consumer count; Published and
	// Dropped are lifetime line counters.
	Subscribers int    `json:"subscribers"`
	Published   uint64 `json:"published"`
	Dropped     uint64 `json:"dropped"`
}

// RunsSnapshot is the /runs payload: every run's live state plus batch
// aggregates.
type RunsSnapshot struct {
	// Runs lists each run in registration order.
	Runs []runner.RunSnapshot `json:"runs"`
	// Batch aggregates the run states.
	Batch BatchMetrics `json:"batch"`
}

// BatchMetrics aggregates a batch's run states.
type BatchMetrics struct {
	// Total/Pending/Running/Done/Failed count runs by status.
	Total   int `json:"total"`
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// Events sums per-run dispatched events (live, mid-run included).
	Events uint64 `json:"events"`
}

// Server exposes a batch's live state over HTTP. Create with NewServer,
// start with Start, stop with Close (which drains /events subscribers
// before the listener goes away).
type Server struct {
	// Hub is the artifact line fan-out; publishers tee into it via
	// Hub.ArtifactWriter.
	Hub *Hub
	// RunTable is the live run table backing /runs; may be nil (endpoint
	// then reports an empty batch).
	RunTable *runner.RunTable

	hostMu sync.Mutex
	host   func() obs.HostGauges
	ln     net.Listener
	srv    *http.Server

	extras []extraRoute
}

// extraRoute is one caller-registered endpoint (the serve layer's /jobs
// and /experiments), installed on the mux when Start builds it.
type extraRoute struct {
	pattern string
	desc    string
	handler http.Handler
}

// NewServer returns a server with a fresh hub.
func NewServer(runs *runner.RunTable) *Server {
	return &Server{Hub: NewHub(), RunTable: runs}
}

// Addr returns the bound listen address once Start has succeeded.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Handle registers an extra endpoint on the server's mux, with a one-line
// description for the index page. Call before Start; routes registered
// afterwards are ignored. The serve layer uses this to mount /jobs and
// /experiments next to the streaming endpoints so one listener carries
// both.
func (s *Server) Handle(pattern, desc string, h http.Handler) {
	s.extras = append(s.extras, extraRoute{pattern: pattern, desc: desc, handler: h})
}

// Start binds addr (e.g. ":8080", "127.0.0.1:0") and serves in the
// background until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.host = obs.NewHostGaugeReader()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/events", s.handleEvents)
	for _, e := range s.extras {
		mux.Handle(e.pattern, e.handler)
	}
	mux.HandleFunc("/", s.handleIndex)
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Close shuts the server down: the hub closes first so /events handlers
// drain every already-published line to their clients, then the HTTP
// server waits for in-flight handlers before releasing the listener.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	s.Hub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// Metrics assembles the /metrics payload.
func (s *Server) Metrics() MetricsSnapshot {
	s.hostMu.Lock()
	if s.host == nil {
		s.host = obs.NewHostGaugeReader()
	}
	g := s.host()
	s.hostMu.Unlock()
	subs, pub, drop := s.Hub.Stats()
	snap := MetricsSnapshot{
		WallUnixMS: time.Now().UnixMilli(),
		Runtime: RuntimeMetrics{
			RSSBytes:   g.RSSBytes,
			HeapBytes:  g.HeapBytes,
			GCCycles:   g.GCCycles,
			GCPauseUS:  g.GCPauseUS,
			Goroutines: g.Goroutines,
		},
		Sim: SimMetrics{
			Events:           sim.TotalEvents(),
			EventsDispatched: sim.TotalProcessed(),
		},
		Stream: StreamMetrics{Subscribers: subs, Published: pub, Dropped: drop},
	}
	totals := obs.CostTotals()
	var totalNS int64
	for _, b := range totals {
		totalNS += b.Nanos
	}
	for k, b := range totals {
		if b.Samples == 0 {
			continue
		}
		m := CostMetric{Kind: sim.EventKindName(uint8(k)), Samples: b.Samples, Nanos: b.Nanos}
		if totalNS > 0 {
			m.Share = float64(b.Nanos) / float64(totalNS)
		}
		snap.Cost = append(snap.Cost, m)
	}
	return snap
}

// Runs assembles the /runs payload.
func (s *Server) Runs() RunsSnapshot {
	out := RunsSnapshot{}
	if s.RunTable != nil {
		out.Runs = s.RunTable.Snapshot()
	}
	out.Batch.Total = len(out.Runs)
	for _, r := range out.Runs {
		switch r.Status {
		case "pending":
			out.Batch.Pending++
		case "running":
			out.Batch.Running++
		case "done":
			out.Batch.Done++
		case "failed":
			out.Batch.Failed++
		}
		out.Batch.Events += r.Events
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Metrics())
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Runs())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "prioplus-sim live endpoints:\n  /metrics  process gauges + cost attribution (JSON)\n  /runs     batch run state (JSON)\n  /events   artifact line stream (SSE)\n")
	for _, e := range s.extras {
		if e.desc != "" {
			fmt.Fprintf(w, "  %-9s %s\n", e.pattern, e.desc)
		}
	}
}

// handleEvents serves the SSE stream: one event per artifact line, with
// the run stem as the SSE id and the raw JSONL line as data. A trailing
// "event: dropped" message reports lines this subscriber lost, so
// consumers can tell a complete stream from a truncated one.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream open\n\n")
	fl.Flush()

	sub := s.Hub.Subscribe(0)
	defer s.Hub.Unsubscribe(sub)
	heartbeat := time.NewTicker(5 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case msg, open := <-sub.C():
			if !open {
				fmt.Fprintf(w, "event: dropped\ndata: %d\n\n", sub.Dropped())
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "id: %s\ndata: %s\n\n", msg.Run, msg.Line)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprintf(w, ": ping\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeJSON renders v as indented JSON (these payloads are small and often
// read by humans with curl).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
