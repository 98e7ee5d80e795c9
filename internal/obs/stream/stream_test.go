package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"prioplus/internal/runner"
)

func TestHubFanOutOrder(t *testing.T) {
	h := NewHub()
	a := h.Subscribe(16)
	b := h.Subscribe(16)
	for i := 0; i < 10; i++ {
		h.Publish("run1", []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	h.Close()
	for _, sub := range []*Subscriber{a, b} {
		i := 0
		for msg := range sub.C() {
			want := fmt.Sprintf(`{"i":%d}`, i)
			if msg.Run != "run1" || string(msg.Line) != want {
				t.Fatalf("msg %d = %q (run %q), want %q", i, msg.Line, msg.Run, want)
			}
			i++
		}
		if i != 10 {
			t.Fatalf("subscriber got %d lines, want 10", i)
		}
		if sub.Dropped() != 0 {
			t.Fatalf("fast subscriber dropped %d", sub.Dropped())
		}
	}
}

// TestHubSlowConsumerDrops pins the backpressure contract: a full
// subscriber buffer drops with a counter and never blocks the publisher.
// Run under -race in CI, with a consumer that reads nothing until the
// publisher has finished.
func TestHubSlowConsumerDrops(t *testing.T) {
	h := NewHub()
	slow := h.Subscribe(4)
	const n = 100
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			h.Publish("r", []byte("line"))
		}
	}()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("publisher blocked for %v on a slow consumer", elapsed)
	}
	h.Close()
	got := 0
	for range slow.C() {
		got++
	}
	if got != 4 {
		t.Errorf("slow consumer received %d lines, want 4 (buffer size)", got)
	}
	if slow.Dropped() != n-4 {
		t.Errorf("dropped = %d, want %d", slow.Dropped(), n-4)
	}
	_, published, dropped := h.Stats()
	if published != n || dropped != n-4 {
		t.Errorf("hub stats published=%d dropped=%d, want %d/%d", published, dropped, n, n-4)
	}
}

func TestHubUnsubscribe(t *testing.T) {
	h := NewHub()
	s := h.Subscribe(4)
	h.Publish("r", []byte("a"))
	h.Unsubscribe(s)
	h.Publish("r", []byte("b"))
	var lines []string
	for msg := range s.C() {
		lines = append(lines, string(msg.Line))
	}
	if len(lines) != 1 || lines[0] != "a" {
		t.Errorf("lines after unsubscribe = %v, want [a]", lines)
	}
	// Double unsubscribe must not panic.
	h.Unsubscribe(s)
}

func TestLineWriterSplitsExactly(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(64)
	lw := h.ArtifactWriter("run7")
	// Write in awkward chunks straddling line boundaries.
	payload := "{\"type\":\"meta\",\"v\":1}\n{\"type\":\"sample\",\"v\":[1,2]}\n{\"type\":\"metric\"}\n"
	for i := 0; i < len(payload); i += 7 {
		end := i + 7
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := lw.Write([]byte(payload[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	lw.Close()
	h.Close()
	var got []string
	for msg := range sub.C() {
		if msg.Run != "run7" {
			t.Fatalf("run = %q", msg.Run)
		}
		got = append(got, string(msg.Line))
	}
	want := strings.Split(strings.TrimSuffix(payload, "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	var table runner.RunTable
	st := table.Add("fig10b/seed=1", "fig10b", 1)
	st.Start()
	st.Live.Events.Add(500)

	srv := NewServer(&table)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// /events: subscribe first so published lines reach us.
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events content-type = %q", ct)
	}

	// Give the handler a moment to subscribe before publishing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _, _ := srv.Hub.Stats(); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	lines := []string{`{"type":"meta","v":1,"run":"fig10b"}`, `{"type":"metric","metric":{"name":"net/drops","v":0}}`}
	for _, l := range lines {
		srv.Hub.Publish("fig10b", []byte(l))
	}

	// /metrics while the stream is live.
	var metrics MetricsSnapshot
	getJSON(t, base+"/metrics", &metrics)
	if metrics.Runtime.Goroutines < 1 || metrics.Runtime.HeapBytes <= 0 {
		t.Errorf("implausible runtime gauges: %+v", metrics.Runtime)
	}
	if metrics.Stream.Subscribers != 1 || metrics.Stream.Published != 2 {
		t.Errorf("stream stats = %+v", metrics.Stream)
	}

	// /runs reflects the run table.
	var runs RunsSnapshot
	getJSON(t, base+"/runs", &runs)
	if runs.Batch.Total != 1 || runs.Batch.Running != 1 || runs.Batch.Events != 500 {
		t.Errorf("batch = %+v", runs.Batch)
	}
	if len(runs.Runs) != 1 || runs.Runs[0].Name != "fig10b/seed=1" {
		t.Errorf("runs = %+v", runs.Runs)
	}

	// Close drains: the SSE body must contain both lines, byte-identical,
	// then terminate.
	done := make(chan error, 1)
	var body bytes.Buffer
	go func() {
		_, err := body.ReadFrom(resp.Body)
		done <- err
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE connection did not terminate on Close")
	}
	var data []string
	sc := bufio.NewScanner(&body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			data = append(data, strings.TrimPrefix(sc.Text(), "data: "))
		}
	}
	if len(data) < 2 {
		t.Fatalf("SSE data lines = %v, want at least the 2 published", data)
	}
	for i, want := range lines {
		if data[i] != want {
			t.Errorf("SSE line %d = %q, want %q", i, data[i], want)
		}
	}
}

// getJSON fetches url and decodes its JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}
