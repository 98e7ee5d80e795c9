package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one `prioplus-sim serve` child.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

var bannerRE = regexp.MustCompile(`job server on (http://[0-9.]+:[0-9]+)`)

// startServer launches the job server on an ephemeral port, reads the
// address from its stderr banner and waits until /experiments answers.
func (b *bench) startServer() (*server, error) {
	cmd := exec.Command(b.sim, "serve", "-listen", "127.0.0.1:0", "-workers", "1",
		"-manifest", "testdata/fingerprints.json")
	cmd.Dir = b.root
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Keep draining after the banner so the server never blocks on a
		// full pipe; the scan ends when the process closes its stderr.
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := bannerRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case s.base = <-addr:
	case <-s.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("server exited before announcing its address")
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, fmt.Errorf("server did not announce its address within 10s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/experiments")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server never answered /experiments: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the server with SIGTERM, killing it if it has not exited after
// 5 s, waits for it, and returns its peak RSS.
func (s *server) stop() float64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(5*time.Second, func() { _ = s.cmd.Process.Kill() })
	<-s.done // stderr closed: the process is gone or going
	_ = s.cmd.Wait()
	timer.Stop()
	return childRSSMB(s.cmd.ProcessState)
}

// jobSnapshot is the part of the API's job snapshot the load generator reads.
type jobSnapshot struct {
	ID     string  `json:"id"`
	Status string  `json:"status"`
	Cache  string  `json:"cache"`
	FP     string  `json:"fp"`
	Err    string  `json:"error"`
	WallMS float64 `json:"wall_ms"`
	Events float64 `json:"events"`
}

// sample is one completed request as the client saw it.
type sample struct {
	req        request
	ok         bool
	totalMS    float64 // POST sent -> result bytes received
	postMS     float64
	queueMS    float64 // done observed - submitted - compute, misses only
	computeMS  float64 // the server's wall_ms
	fetchMS    float64
	polls      int
	events     float64
	fp         string
	resultHash string
}

// client is one closed-loop caller on its own connection.
type client struct {
	id     int
	http   *http.Client
	stream *clientStream
	seen   map[string]sample // spec key -> the miss that computed it
	got    []sample          // timed samples of the current round
	n429   int
}

func newClient(id int, seed int64) *client {
	return &client{
		id:     id,
		http:   &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		stream: newClientStream(seed, id),
		seen:   map[string]sample{},
	}
}

func (c *client) do(method, url, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// exchange performs submit -> poll -> fetch for one request and checks the
// reply; spans go to log when it is non-nil.
func (b *bench) exchange(c *client, base string, r request, seq int, log *spanLog) sample {
	s := sample{req: r}
	fail := func(format string, args ...any) sample {
		b.tally.fail(1, "client %d request %d (%s): %s", c.id, seq, r.key(), fmt.Sprintf(format, args...))
		return s
	}
	traceID := fmt.Sprintf("c%d-r%d", c.id, seq)
	t0 := time.Now()
	code, data, err := c.do("POST", base+"/jobs", r.body())
	t1 := time.Now()
	if err != nil {
		return fail("POST /jobs: %v", err)
	}
	if code == http.StatusTooManyRequests {
		c.n429++
	}
	if code != http.StatusAccepted {
		return fail("POST /jobs: HTTP %d", code)
	}
	var snap jobSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fail("POST /jobs: %v", err)
	}
	for snap.Status == "queued" || snap.Status == "running" {
		if time.Since(t0) > 30*time.Second {
			return fail("job %s still %s after 30s", snap.ID, snap.Status)
		}
		time.Sleep(time.Millisecond)
		code, data, err = c.do("GET", base+"/jobs/"+snap.ID, "")
		if err != nil || code != http.StatusOK {
			return fail("GET /jobs/%s: HTTP %d %v", snap.ID, code, err)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			return fail("GET /jobs/%s: %v", snap.ID, err)
		}
		s.polls++
	}
	t2 := time.Now()
	if snap.Status != "done" {
		return fail("job %s %s: %s", snap.ID, snap.Status, snap.Err)
	}
	url := base + "/jobs/" + snap.ID + "/result"
	if !r.Artifact {
		url += "?format=text"
	}
	code, data, err = c.do("GET", url, "")
	t3 := time.Now()
	if err != nil || code != http.StatusOK {
		return fail("GET result: HTTP %d %v", code, err)
	}

	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	s.totalMS, s.postMS, s.fetchMS = ms(t0, t3), ms(t0, t1), ms(t2, t3)
	s.computeMS, s.events, s.fp = snap.WallMS, snap.Events, snap.FP
	if !r.Hit {
		s.queueMS = max(ms(t0, t2)-snap.WallMS, 0)
	}
	if log != nil {
		root := log.add(0, traceID, "request", t0, t3)
		log.add(root, traceID, "http.post", t0, t1)
		if !r.Hit {
			// The client cannot see when the worker picked the job up; it
			// knows the compute wall, so the wait is placed before it.
			computeStart := t2.Add(-time.Duration(snap.WallMS * float64(time.Millisecond)))
			if computeStart.Before(t1) {
				computeStart = t1
			}
			log.add(root, traceID, "queue_wait", t1, computeStart)
			log.add(root, traceID, "compute", computeStart, t2)
		} else if s.polls > 0 {
			log.add(root, traceID, "poll", t1, t2)
		}
		log.add(root, traceID, "http.result", t2, t3)
	}

	// Correctness gate.
	wantCache := "miss"
	if r.Hit {
		wantCache = "hit"
	}
	if snap.Cache != wantCache {
		return fail("scheduled as a cache %s, server says %q", wantCache, snap.Cache)
	}
	output := data
	if r.Artifact {
		var res struct {
			FP        string          `json:"fp"`
			Output    string          `json:"output"`
			Artifacts json.RawMessage `json:"artifacts"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return fail("result JSON: %v", err)
		}
		if res.FP != snap.FP {
			return fail("result fp %s, snapshot fp %s", res.FP, snap.FP)
		}
		if len(res.Artifacts) == 0 && recordsArtifacts[r.Exp] {
			return fail("artifact job returned no artifacts")
		}
		output = []byte(res.Output)
		s.resultHash = fnv64a(append(append([]byte(nil), output...), res.Artifacts...))
	} else {
		s.resultHash = fnv64a(output)
	}
	if got := fnv64a(output); got != snap.FP {
		return fail("fp %s is not the FNV-64a of the output (%s)", snap.FP, got)
	}
	if r.Perturb == 0 {
		if want, ok := b.manifest[r.Exp+"/seed=1"]; ok && want != snap.FP {
			return fail("fp %s, manifest has %s", snap.FP, want)
		}
	}
	if r.Hit {
		first := c.seen[r.key()]
		if first.fp != s.fp || first.resultHash != s.resultHash {
			return fail("hit returned fp %s / bytes %s, its miss %s / %s", s.fp, s.resultHash, first.fp, first.resultHash)
		}
	} else {
		c.seen[r.key()] = s
	}
	s.ok = true
	return s
}

// serveSetup is everything before the first timed request: scratch dir,
// manifest, schedule generation, server start until it answers, warm-up.
func (b *bench) serveSetup() (*server, []*client, error) {
	if err := b.loadManifest(); err != nil {
		return nil, nil, err
	}
	clients := make([]*client, serveClients)
	warm := make([][]request, serveClients)
	for i := range clients {
		clients[i] = newClient(i, b.seed)
		warm[i] = clients[i].stream.block(warmupRequests, warmupMisses)
	}
	srv, err := b.startServer()
	if err != nil {
		return nil, nil, err
	}
	b.playRound(srv, clients, warm, nil)
	return srv, clients, nil
}

// playRound has every client work through its request list, concurrently and
// closed-loop, and returns the wall from the common start to the last reply.
func (b *bench) playRound(srv *server, clients []*client, reqs [][]request, log *spanLog) float64 {
	for _, r := range reqs {
		b.tally.attempted += len(r)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		c.got = c.got[:0]
		wg.Add(1)
		go func(c *client, reqs []request) {
			defer wg.Done()
			for seq, r := range reqs {
				if b.ctx.Err() != nil {
					return
				}
				c.got = append(c.got, b.exchange(c, srv.base, r, seq, log))
			}
		}(c, reqs[i])
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// runServeWorkload measures serve_mixed for b.seconds.
func (b *bench) runServeWorkload() error {
	var srv *server
	var clients []*client
	setupS, err := b.repeatSetup(func(last bool) error {
		s, cs, err := b.serveSetup()
		if err != nil {
			return err
		}
		if last {
			srv, clients = s, cs
		} else {
			s.stop()
		}
		return nil
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	// What the surviving server has been sent so far: one warm-up.
	wantHits, wantMisses := serveClients*(warmupRequests-warmupMisses), serveClients*warmupMisses

	type round struct {
		wallS, events float64
		traced        bool
	}
	var rounds []round
	var all []sample
	start := time.Now()
	for i := 0; ; i++ {
		reqs := make([][]request, len(clients))
		for c := range clients {
			reqs[c] = clients[c].stream.block(blockRequests, blockMisses)
		}
		// Traced runs record spans on every other round, so the cost of
		// recording is the difference between neighbouring rounds.
		var log *spanLog
		if b.trace && i%2 == 1 {
			log = b.spans
		}
		iter := time.Now()
		r := round{traced: log != nil}
		r.wallS = b.playRound(srv, clients, reqs, log)
		wantHits += serveClients * (blockRequests - blockMisses)
		wantMisses += serveClients * blockMisses
		for _, c := range clients {
			for _, s := range c.got {
				if !s.req.Hit {
					r.events += s.events
				}
				all = append(all, s)
			}
		}
		rounds = append(rounds, r)
		if b.ctx.Err() != nil {
			return b.ctx.Err()
		}
		enough := !b.trace || len(rounds)%2 == 0 // traced runs need whole pairs
		if enough && time.Since(start).Seconds()+time.Since(iter).Seconds()/2 > b.seconds {
			break
		}
	}

	// The server's own counters must equal the schedule, warm-up included.
	var table struct {
		Cache struct {
			Hits   int `json:"hits"`
			Misses int `json:"misses"`
		} `json:"cache"`
	}
	var live struct {
		Runtime struct {
			RSS        float64 `json:"rss_bytes"`
			Goroutines float64 `json:"goroutines"`
		} `json:"runtime"`
	}
	b.tally.attempted += 2 // the two probes below
	probe := clients[0]
	if code, data, err := probe.do("GET", srv.base+"/jobs", ""); err != nil || code != 200 || json.Unmarshal(data, &table) != nil {
		b.tally.fail(1, "GET /jobs: HTTP %d %v", code, err)
	} else if table.Cache.Hits != wantHits || table.Cache.Misses != wantMisses {
		b.tally.fail(1, "server counted %d hits / %d misses, the schedule has %d / %d",
			table.Cache.Hits, table.Cache.Misses, wantHits, wantMisses)
	}
	if code, data, err := probe.do("GET", srv.base+"/metrics", ""); err != nil || code != 200 || json.Unmarshal(data, &live) != nil {
		b.tally.fail(1, "GET /metrics: HTTP %d %v", code, err)
	}
	n429 := 0
	for _, c := range clients {
		n429 += c.n429
		c.http.CloseIdleConnections()
	}
	rss := srv.stop()
	stopped = true

	var missMS, hitMS, plainMiss, artMiss, postMS, queueMS, computeMS, fetchMS, polls []float64
	for _, s := range all {
		if !s.ok {
			continue
		}
		postMS = append(postMS, s.postMS)
		fetchMS = append(fetchMS, s.fetchMS)
		polls = append(polls, float64(s.polls))
		if s.req.Hit {
			hitMS = append(hitMS, s.totalMS)
			continue
		}
		missMS = append(missMS, s.totalMS)
		queueMS = append(queueMS, s.queueMS)
		computeMS = append(computeMS, s.computeMS)
		if s.req.Artifact {
			artMiss = append(artMiss, s.totalMS)
		} else {
			plainMiss = append(plainMiss, s.totalMS)
		}
	}
	if len(missMS) == 0 || len(hitMS) == 0 {
		return fmt.Errorf("no request completed: %v", b.tally.msgs)
	}
	var walls, untracedWalls, tracedWalls, evRates []float64
	for _, r := range rounds {
		walls = append(walls, r.wallS)
		evRates = append(evRates, r.events/r.wallS/1e6)
		if r.traced {
			tracedWalls = append(tracedWalls, r.wallS)
		} else {
			untracedWalls = append(untracedWalls, r.wallS)
		}
	}
	perRound := float64(serveClients * blockRequests)
	if !b.trace {
		b.put("wall_s", median(walls), "s", fmt.Sprintf("median of %d rounds of %.0f requests", len(walls), perRound))
		b.put("mevents_per_s", median(evRates), "1e6/s", "logical events the server simulated per second of round wall")
		b.put("peak_rss_mb", rss, "MB", "server Maxrss")
		b.put("miss_p50_ms", median(missMS), "ms", fmt.Sprintf("median of %d misses, submit -> result bytes", len(missMS)))
		b.put("miss_p95_ms", percentile(missMS, 95), "ms", tailNote(95, len(missMS)))
		b.put("hit_p50_ms", median(hitMS), "ms", fmt.Sprintf("median of %d cache hits", len(hitMS)))
		b.put("jobs_per_s", perRound/median(walls), "1/s", "requests per round / median round wall")
		b.put("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups (server start + %d warm-up requests)", setupRepeats, serveClients*warmupRequests))
		return nil
	}
	startup := b.startupSamples(20)
	b.put("cli.startup_ms", median(startup), "ms", fmt.Sprintf("median of %d `fig2` execs", len(startup)))
	b.put("trace.overhead_frac", median(tracedWalls)/median(untracedWalls)-1, "ratio",
		fmt.Sprintf("rounds with spans on / off - 1, %d pairs", len(tracedWalls)))
	b.put("serve.http_post_ms_p50", median(postMS), "ms", fmt.Sprintf("%d requests", len(postMS)))
	b.put("serve.queue_wait_ms_p50", median(queueMS), "ms", fmt.Sprintf("%d misses: done - submit - compute", len(queueMS)))
	b.put("serve.queue_wait_ms_p95", percentile(queueMS, 95), "ms", tailNote(95, len(queueMS)))
	b.put("serve.compute_ms_p50", median(computeMS), "ms", "server-reported wall_ms of misses")
	b.put("serve.result_fetch_ms_p50", median(fetchMS), "ms", "")
	b.put("serve.polls_mean", mean(polls), "count", "GET /jobs/{id} per request")
	b.put("serve.hit_p95_ms", percentile(hitMS, 95), "ms", tailNote(95, len(hitMS)))
	b.put("serve.plain_miss_p50_ms", median(plainMiss), "ms", fmt.Sprintf("%d misses fetched as text", len(plainMiss)))
	b.put("serve.artifact_miss_p50_ms", median(artMiss), "ms", fmt.Sprintf("%d misses with artifacts", len(artMiss)))
	b.put("serve.cache_hits", float64(table.Cache.Hits), "count", "server counter; must equal the schedule")
	b.put("serve.cache_misses", float64(table.Cache.Misses), "count", "server counter; must equal the schedule")
	b.put("serve.http_429", float64(n429), "count", "")
	b.put("serve.rss_mb_end", live.Runtime.RSS/1e6, "MB", "from /metrics before shutdown")
	b.put("serve.goroutines_end", live.Runtime.Goroutines, "count", "from /metrics before shutdown")
	for name, us := range b.spans.selfTimes() {
		fmt.Fprintf(os.Stderr, "span self time %-12s %10.1f ms\n", name, us/1e3)
	}
	return nil
}
