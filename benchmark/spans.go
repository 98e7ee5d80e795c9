package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, as seen from outside the
// program: a CLI process, one (experiment, seed) run inside it, one HTTP
// exchange of a request. Spans of one process or one request share Trace.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the recorder was created
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how untraced runs and untraced rounds are measured.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id for children to point at.
func (l *spanLog) add(parent int, trace, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartUS: float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(l.t0).Nanoseconds()) / 1e3,
	})
	return id
}

// open starts a span now and returns its id; close ends it. Used where
// children must name their parent before the parent has finished.
func (l *spanLog) open(parent int, trace, name string) int {
	now := time.Now()
	return l.add(parent, trace, name, now, now)
}

func (l *spanLog) close(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndUS = float64(time.Since(l.t0).Nanoseconds()) / 1e3
}

// selfTimes returns, per span name, the summed self time in microseconds:
// each span's duration minus the part of it its direct children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make(map[int]float64, len(l.spans))
	for _, s := range l.spans {
		child[s.Parent] += s.EndUS - s.StartUS
	}
	self := map[string]float64{}
	for _, s := range l.spans {
		self[s.Name] += s.EndUS - s.StartUS - child[s.ID]
	}
	return self
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
