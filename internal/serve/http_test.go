package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
)

// startTestServer stands up the full stack: run table, streaming server,
// scheduler, and the job API mounted on one listener.
func startTestServer(t *testing.T, cfg Config) (base string, s *Scheduler) {
	t.Helper()
	runs := &runner.RunTable{}
	srv := stream.NewServer(runs)
	cfg.RunTable = runs
	cfg.Hub = srv.Hub
	s = New(cfg)
	NewAPI(s).Mount(srv)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); srv.Close() })
	return "http://" + srv.Addr(), s
}

func httpJSON(t *testing.T, method, url string, body []byte, out any) (code int) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPJobLifecycle drives the full API over a real listener: submit a
// registered experiment, poll to done, fetch the result both as JSON and
// as raw text, resubmit for a cache hit with the same fingerprint, and
// confirm /runs shows the computed job.
func TestHTTPJobLifecycle(t *testing.T) {
	base, _ := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// /experiments lists the registry, fig2 included.
	var exps struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	if code := httpJSON(t, "GET", base+"/experiments", nil, &exps); code != 200 {
		t.Fatalf("GET /experiments: %d", code)
	}
	found := false
	for _, e := range exps.Experiments {
		if e.ID == "fig2" {
			found = true
			if e.Defaults.Seed != 1 {
				t.Errorf("fig2 defaults %+v, want seed 1", e.Defaults)
			}
		}
	}
	if !found {
		t.Fatal("/experiments does not list fig2")
	}

	// Submit and poll.
	var snap JobSnapshot
	code := httpJSON(t, "POST", base+"/jobs", []byte(`{"experiment": "fig2", "params": {"seed": 1}}`), &snap)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for snap.Status != JobDone && snap.Status != JobFailed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if code := httpJSON(t, "GET", base+"/jobs/"+snap.ID, nil, &snap); code != 200 {
			t.Fatalf("GET /jobs/%s: %d", snap.ID, code)
		}
	}
	if snap.Status != JobDone || snap.Cache != "miss" || snap.FP == "" {
		t.Fatalf("job end state %+v", snap)
	}

	// JSON result and raw text agree.
	var res JobResult
	if code := httpJSON(t, "GET", base+"/jobs/"+snap.ID+"/result", nil, &res); code != 200 {
		t.Fatalf("GET result: %d", code)
	}
	resp, err := http.Get(base + "/jobs/" + snap.ID + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(raw) != res.Output {
		t.Errorf("format=text (%d) differs from JSON output", resp.StatusCode)
	}
	if OutputFingerprint(res.Output) != snap.FP {
		t.Error("output does not hash to the reported fp")
	}

	// Identical resubmit: immediate cache hit, same fp.
	var snap2 JobSnapshot
	if code := httpJSON(t, "POST", base+"/jobs", []byte(`{"experiment": "fig2", "params": {"seed": 1}}`), &snap2); code != http.StatusAccepted {
		t.Fatalf("re-POST /jobs: %d", code)
	}
	if snap2.Status != JobDone || snap2.Cache != "hit" || snap2.FP != snap.FP {
		t.Errorf("resubmit %+v, want immediate hit with fp %s", snap2, snap.FP)
	}

	// /jobs table sees both; /runs saw one computation.
	var table JobsSnapshot
	httpJSON(t, "GET", base+"/jobs", nil, &table)
	if len(table.Jobs) != 2 || table.Cache.Hits != 1 || table.Cache.Misses != 1 {
		t.Errorf("jobs table %+v, want 2 jobs, 1 hit, 1 miss", table)
	}
	var runs stream.RunsSnapshot
	httpJSON(t, "GET", base+"/runs", nil, &runs)
	if len(runs.Runs) != 1 || runs.Runs[0].Experiment != "fig2" {
		t.Errorf("/runs %+v, want the one computed fig2 job", runs.Runs)
	}
}

// TestHTTPErrors pins the error contract: 400 for bad specs, 404 for
// unknown jobs, 409 for results of unfinished jobs and bad cancels.
func TestHTTPErrors(t *testing.T) {
	base, _ := startTestServer(t, Config{Workers: 1})

	var e struct {
		Error string `json:"error"`
	}
	for _, tc := range []struct {
		method, path, body string
		want               int
		errHas             string // a substring the JSON error must carry
	}{
		{"POST", "/jobs", `{"experiment": "fig99"}`, 400, ""},
		{"POST", "/jobs", `{"experiment": "fig2", "params": {"sede": 1}}`, 400, ""},
		{"POST", "/jobs", `{"experiment": "fig2", "bogus": true}`, 400, ""},
		{"POST", "/jobs", `not json`, 400, ""},
		{"POST", "/jobs", `{"experiment": "fig2"} {"experiment": "fig3a"}`, 400, "trailing data"},
		{"POST", "/jobs", `{"experiment": "` + strings.Repeat("x", 1<<20) + `"}`, 413, "1048576-byte limit"},
		{"GET", "/jobs/j999", "", 404, ""},
		{"GET", "/jobs/j999/result", "", 404, ""},
		{"DELETE", "/jobs/j999", "", 404, ""},
		{"GET", "/jobs/j1/bogus", "", 404, ""},
		{"PUT", "/jobs", "", 405, ""},
	} {
		e.Error = ""
		code := httpJSON(t, tc.method, base+tc.path, []byte(tc.body), &e)
		if code != tc.want || e.Error == "" || !strings.Contains(e.Error, tc.errHas) {
			t.Errorf("%s %s: code=%d error=%q, want %d with a JSON error naming %q", tc.method, tc.path, code, e.Error, tc.want, tc.errHas)
		}
	}
}

// TestHTTPArtifactJob: a job submitted with artifact=true returns the
// captured artifact lines in its result, under the canonical stem.
func TestHTTPArtifactJob(t *testing.T) {
	base, _ := startTestServer(t, Config{Workers: 1})
	var snap JobSnapshot
	code := httpJSON(t, "POST", base+"/jobs", []byte(`{"experiment": "testblock", "params": {"seed": 400}, "artifact": true}`), &snap)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for snap.Status != JobDone && snap.Status != JobFailed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		httpJSON(t, "GET", base+"/jobs/"+snap.ID, nil, &snap)
	}
	if snap.Status != JobDone {
		t.Fatalf("artifact job: %+v", snap)
	}
	var res JobResult
	httpJSON(t, "GET", base+"/jobs/"+snap.ID+"/result", nil, &res)
	if len(res.Artifacts) != 1 {
		t.Fatalf("artifact count %d, want 1", len(res.Artifacts))
	}
	a := res.Artifacts[0]
	if want := fmt.Sprintf("testblock__t__seed%d", 400); a.Stem != want {
		t.Errorf("artifact stem %q, want %q", a.Stem, want)
	}
	if a.Lines == "" {
		t.Error("artifact has no lines")
	}
}
