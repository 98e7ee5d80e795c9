package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// batchDoc is the part of `prioplus-sim all -json` the runner reads.
type batchDoc struct {
	Events     uint64 `json:"events"`
	Dispatched uint64 `json:"events_dispatched"`
	Runs       []struct {
		Name        string  `json:"name"`
		WallMS      float64 `json:"wall_ms"`
		Output      string  `json:"output"`
		Error       string  `json:"error"`
		Fingerprint string  `json:"fingerprint"`
	} `json:"runs"`
}

// stepMode says which flags a CLI step runs with.
type stepMode int

const (
	asDeclared   stepMode = iota // obsFlags when the step says Obs, else none
	instrumented                 // a plain step gains traceFlags; an Obs step is unchanged
	stripped                     // no hooks even on an Obs step: the plain twin obs overhead is measured against
)

// stepResult is what one CLI process yielded.
type stepResult struct {
	wallS         float64
	rssMB         float64
	doc           batchDoc
	artifactBytes int64
	cost          map[string]costAgg // event kind -> sampled attribution, summed over the step's artifacts
	ok            bool               // the process ran to completion with a readable report
}

type costAgg struct{ samples, ns float64 }

// childRSSMB reads the peak resident set of an exited child from its rusage
// (kilobytes on Linux).
func childRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// stripLines drops the lines of out that start with any prefix.
func stripLines(out string, prefixes ...string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		keep := true
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				keep = false
			}
		}
		if keep {
			b.WriteString(line)
		}
	}
	return b.String()
}

// runStep executes one `prioplus-sim all` process, times it from exec to
// exit, and checks every run it reports. Violations land in b.tally.
func (b *bench) runStep(st cliStep, mode stepMode, parentSpan int, traceID string) stepResult {
	var res stepResult
	jsonPath := filepath.Join(b.tmp, "batch.json")
	artDir := filepath.Join(b.tmp, "artifacts") // created by the CLI when -series names it
	defer os.RemoveAll(artDir)

	args := []string{"all", "-only", strings.Join(st.IDs, ","), "-seeds", seedsArg(st.Seeds),
		"-parallel", "1", "-progress=false", "-json", jsonPath}
	var extra []string
	switch {
	case st.Obs && mode != stripped:
		extra = obsFlags
	case !st.Obs && mode == instrumented:
		extra = traceFlags
	}
	for _, f := range extra {
		if f == "%s" {
			f = artDir
		}
		args = append(args, f)
	}

	limit := time.Duration(3 * st.ExpectS * float64(time.Second))
	if limit < 20*time.Second {
		limit = 20 * time.Second
	}
	ctx, cancel := context.WithTimeout(b.ctx, limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.sim, args...)
	cmd.Dir = b.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.WaitDelay = 2 * time.Second

	b.tally.attempted += st.runs()
	start := time.Now()
	err := cmd.Run()
	end := time.Now()
	res.wallS = end.Sub(start).Seconds()
	if cmd.ProcessState != nil {
		res.rssMB = childRSSMB(cmd.ProcessState)
	}
	procSpan := b.spans.add(parentSpan, traceID, "cli."+st.Name, start, end)
	if ctx.Err() == context.DeadlineExceeded {
		b.tally.fail(st.runs(), "%s: aborted after %s (3x its expected wall)", st.Name, limit)
		return res
	}
	if err != nil {
		b.tally.fail(st.runs(), "%s: %v: %s", st.Name, err, lastLine(stderr.String()))
		return res
	}
	data, err := os.ReadFile(jsonPath)
	if err == nil {
		err = json.Unmarshal(data, &res.doc)
	}
	if err != nil {
		b.tally.fail(st.runs(), "%s: reading -json report: %v", st.Name, err)
		return res
	}
	if len(res.doc.Runs) != st.runs() {
		b.tally.fail(st.runs(), "%s: report has %d runs, want %d", st.Name, len(res.doc.Runs), st.runs())
		return res
	}
	res.ok = true

	// Runs execute one after another (-parallel 1), so each run's span is
	// laid end to end from the process start using the walls it reported.
	at := start
	for _, r := range res.doc.Runs {
		d := time.Duration(r.WallMS * float64(time.Millisecond))
		b.spans.add(procSpan, traceID, "run."+r.Name, at, at.Add(d))
		at = at.Add(d)
		b.checkRun(st, r.Name, r.Output, r.Error, r.Fingerprint, extra != nil && st.Obs)
	}
	if extra != nil && b.trace { // only traced runs report artifact size and cost
		res.artifactBytes, res.cost = scanArtifacts(artDir)
	}
	return res
}

// checkRun applies the correctness gate to one reported run.
func (b *bench) checkRun(st cliStep, name, output, runErr, fingerprint string, obs bool) {
	if runErr != "" {
		b.tally.fail(1, "%s: %s", name, runErr)
		return
	}
	exp, _, _ := strings.Cut(name, "/")
	if exp == "faultsweep" && !strings.Contains(output, "all flows completed") {
		b.tally.fail(1, "%s: output lacks \"all flows completed\"", name)
		return
	}
	if obs {
		// -hist appends "# hist" lines; without them the bytes are what
		// -fingerprint alone prints, which is what the manifest recorded.
		if fingerprint != fnv64a([]byte(output)) {
			b.tally.fail(1, "%s: -json fingerprint %s is not the FNV-64a of its output", name, fingerprint)
			return
		}
		if want, ok := b.manifest[name]; ok {
			if got := fnv64a([]byte(stripLines(output, "# hist"))); got != want {
				b.tally.fail(1, "%s: fingerprint %s, manifest has %s", name, got, want)
				return
			}
		}
	}
	// Identical specs must give identical bytes: across repeats of a unit,
	// across plain and instrumented runs, and across seeds for experiments
	// that bake their own.
	key := name
	if st.Name == "star" {
		key = exp
	}
	h := fnv64a([]byte(stripLines(output, "# hist", "# fingerprint")))
	if prev, seen := b.hashes[key]; seen && prev != h {
		b.tally.fail(1, "%s: output hash %s differs from an earlier identical run (%s)", name, h, prev)
		return
	}
	b.hashes[key] = h
}

// scanArtifacts sizes a -series directory and sums the "cost/<kind>/…"
// metric lines -cost writes into each artifact (docs/OBSERVABILITY.md).
func scanArtifacts(dir string) (int64, map[string]costAgg) {
	var total int64
	cost := map[string]costAgg{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		if st, err := f.Stat(); err == nil {
			total += st.Size()
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte(`{"type":"metric"`)) || !bytes.Contains(line, []byte(`"cost/`)) {
				continue
			}
			var m struct {
				Metric struct {
					Name string  `json:"name"`
					V    float64 `json:"v"`
				} `json:"metric"`
			}
			if json.Unmarshal(line, &m) != nil {
				continue
			}
			parts := strings.Split(m.Metric.Name, "/") // cost/<kind>/<samples|ns>
			if len(parts) != 3 {
				continue
			}
			kind := "other" // pause, rto, sampler and fault fold into it
			for _, named := range costKinds {
				if parts[1] == named {
					kind = named
				}
			}
			agg := cost[kind]
			if parts[2] == "samples" {
				agg.samples += m.Metric.V
			} else {
				agg.ns += m.Metric.V
			}
			cost[kind] = agg
		}
		f.Close()
	}
	return total, cost
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// execFig2 times one `prioplus-sim fig2` from exec to exit: the CLI's only
// request that needs no simulation, so its latency is process start,
// registry set-up and output — the CLI counterpart of a cache hit.
func (b *bench) execFig2() (float64, error) {
	ctx, cancel := context.WithTimeout(b.ctx, 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.sim, "fig2")
	cmd.Dir = b.root
	start := time.Now()
	out, err := cmd.Output()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("fig2 printed nothing")
	}
	return ms, err
}

// startupSamples runs fig2 n times; failures count against the tally.
func (b *bench) startupSamples(n int) []float64 {
	var ms []float64
	for i := 0; i < n; i++ {
		b.tally.attempted++
		v, err := b.execFig2()
		if err != nil {
			b.tally.fail(1, "fig2: %v", err)
			continue
		}
		ms = append(ms, v)
	}
	return ms
}

// cliSetup is everything a CLI workload does before its first timed op: the
// unit's seed lists, the manifest, one untimed exec that pages the binary in.
// (The scratch directory is made once per run, in measure.)
func (b *bench) cliSetup(workload string) error {
	if _, err := cliUnit(workload, b.seed, 0); err != nil {
		return err
	}
	if err := b.loadManifest(); err != nil {
		return err
	}
	_, err := b.execFig2()
	return err
}

// unitSample is one repetition of a workload's unit.
type unitSample struct {
	wallS      float64 // sum of the steps' exec-to-exit walls
	events     float64 // logical events, from -json
	dispatched float64
	runs       int
	stepWallS  map[string]float64
	stepEvents map[string]float64
	artifactB  int64
	cost       map[string]costAgg
	runMS      map[string][]float64 // per experiment id, the walls the CLI reported
	ok         bool                 // every process ran to completion with a readable report
}

// runUnit executes the steps of one unit in order.
func (b *bench) runUnit(steps []cliStep, mode stepMode, traceID string) unitSample {
	u := unitSample{stepWallS: map[string]float64{}, stepEvents: map[string]float64{},
		cost: map[string]costAgg{}, runMS: map[string][]float64{}, ok: true}
	unitSpan := b.spans.open(0, traceID, "unit")
	defer b.spans.close(unitSpan)
	for _, st := range steps {
		r := b.runStep(st, mode, unitSpan, traceID)
		u.ok = u.ok && r.ok
		u.wallS += r.wallS
		u.stepWallS[st.Name] = r.wallS
		u.stepEvents[st.Name] = float64(r.doc.Events)
		u.events += float64(r.doc.Events)
		u.dispatched += float64(r.doc.Dispatched)
		u.runs += len(r.doc.Runs)
		u.artifactB += r.artifactBytes
		for k, c := range r.cost {
			u.cost[k] = costAgg{u.cost[k].samples + c.samples, u.cost[k].ns + c.ns}
		}
		if r.rssMB > b.peakRSS {
			b.peakRSS = r.rssMB
		}
		for _, run := range r.doc.Runs {
			exp, _, _ := strings.Cut(run.Name, "/")
			u.runMS[exp] = append(u.runMS[exp], run.WallMS)
		}
	}
	return u
}

// pick extracts one float per unit.
func pick(us []unitSample, f func(unitSample) float64) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = f(u)
	}
	return out
}

// costKinds are the event kinds reported from the program's -cost output;
// everything else (pause, rto, sampler, fault) is folded into "other".
var costKinds = []string{"transmit", "deliver_switch", "deliver_host", "other"}

// runCLIWorkload measures one of the four CLI workloads for b.seconds.
func (b *bench) runCLIWorkload(workload string) error {
	setupS, err := b.repeatSetup(func(last bool) error { return b.cliSetup(workload) })
	if err != nil {
		return err
	}
	// fig2 execs are spread over the run — a block up front, a few after
	// every unit — so one noisy moment of the host cannot own the median.
	startup := b.startupSamples(20)

	// Untraced, every unit runs as declared. Traced, units alternate between
	// a base and an instrumented form so host drift hits both alike: plain
	// workloads gain traceFlags; obs_full, whose units are all hooks already,
	// is set against its hook-free twin.
	base, instr := asDeclared, instrumented
	if workload == "obs_full" {
		base, instr = stripped, asDeclared
	}
	if !b.trace {
		base = asDeclared
	}
	var baseUnits, instrUnits []unitSample
	start := time.Now()
	for pass := 0; ; pass++ {
		steps, err := cliUnit(workload, b.seed, pass)
		if err != nil {
			return err
		}
		iter := time.Now()
		// A unit with a killed or failed process has no wall worth a
		// sample; its runs are already counted as failed.
		if u := b.runUnit(steps, base, fmt.Sprintf("%s-u%d", workload, pass)); u.ok {
			baseUnits = append(baseUnits, u)
		}
		if b.trace {
			if u := b.runUnit(steps, instr, fmt.Sprintf("%s-u%d-instr", workload, pass)); u.ok {
				instrUnits = append(instrUnits, u)
			}
		}
		startup = append(startup, b.startupSamples(5)...)
		if b.ctx.Err() != nil {
			return b.ctx.Err()
		}
		// Start another repetition only if at least half of it fits.
		if time.Since(start).Seconds()+time.Since(iter).Seconds()/2 > b.seconds {
			break
		}
	}

	if len(baseUnits) == 0 || (b.trace && len(instrUnits) == 0) {
		return fmt.Errorf("no unit completed: %v", b.tally.msgs)
	}
	var runMS []float64
	perExp := map[string][]float64{}
	for _, u := range baseUnits {
		for exp, ms := range u.runMS {
			perExp[exp] = append(perExp[exp], ms...)
			runMS = append(runMS, ms...)
		}
	}
	if once := tracedOnce(workload); b.trace && once != nil {
		for exp, ms := range b.runUnit(once, asDeclared, workload+"-once").runMS {
			perExp[exp] = append(perExp[exp], ms...)
		}
	}
	n := len(baseUnits)
	walls := pick(baseUnits, func(u unitSample) float64 { return u.wallS })
	if !b.trace {
		b.put("wall_s", median(walls), "s", fmt.Sprintf("median of %d units", n))
		b.put("mevents_per_s", median(pick(baseUnits, func(u unitSample) float64 { return u.events / u.wallS / 1e6 })),
			"1e6/s", fmt.Sprintf("median of %d units, %.0f logical events each", n, baseUnits[0].events))
		b.put("peak_rss_mb", b.peakRSS, "MB", "largest child Maxrss")
		b.put("miss_p50_ms", median(runMS), "ms", fmt.Sprintf("median of %d runs (the CLI computes every run)", len(runMS)))
		b.put("miss_p95_ms", percentile(runMS, 95), "ms", tailNote(95, len(runMS)))
		b.put("hit_p50_ms", median(startup), "ms", fmt.Sprintf("median of %d `fig2` execs (no simulation)", len(startup)))
		b.put("jobs_per_s", median(pick(baseUnits, func(u unitSample) float64 { return float64(u.runs) / u.wallS })),
			"1/s", fmt.Sprintf("median of %d units, %d runs each", n, baseUnits[0].runs))
		b.put("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setupRepeats))
		return nil
	}

	instrWalls := pick(instrUnits, func(u unitSample) float64 { return u.wallS })
	b.put("trace.overhead_frac", median(instrWalls)/median(walls)-1, "ratio",
		fmt.Sprintf("instrumented / base unit wall - 1, %d pairs", n))
	b.put("exp.ns_per_event", median(pick(baseUnits, func(u unitSample) float64 { return u.wallS * 1e9 / u.events })), "ns", "")
	b.put("exp.dispatch_ratio", baseUnits[0].dispatched/baseUnits[0].events, "ratio", "dispatched / logical events")
	for _, exp := range []string{"fig10b", "faultsweep", "fig11", "fig16"} {
		if ms := perExp[exp]; len(ms) > 0 {
			b.put("exp."+exp+"_ms", median(ms), "ms", fmt.Sprintf("median of %d runs", len(ms)))
		}
	}
	b.put("cli.startup_ms", median(startup), "ms", fmt.Sprintf("median of %d `fig2` execs", len(startup)))

	// The program's own sampled attribution, from the instrumented units.
	total := 0.0
	sum := map[string]costAgg{}
	for _, u := range instrUnits {
		for k, c := range u.cost {
			sum[k] = costAgg{sum[k].samples + c.samples, sum[k].ns + c.ns}
			total += c.ns
		}
	}
	for _, k := range costKinds {
		if c := sum[k]; total > 0 && c.samples > 0 {
			b.put("obs.cost."+k+".share", c.ns/total, "ratio", "share of sampled ns")
			b.put("obs.cost."+k+".ns", c.ns/c.samples, "ns", fmt.Sprintf("%.0f samples", c.samples))
		}
	}
	if workload == "obs_full" {
		for _, step := range []string{"fig10b", "faultsweep"} {
			on := median(pick(instrUnits, func(u unitSample) float64 { return u.stepWallS[step] }))
			off := median(pick(baseUnits, func(u unitSample) float64 { return u.stepWallS[step] }))
			b.put("obs.overhead_frac."+step, on/off-1, "ratio", "all hooks / no hooks - 1, same run list")
		}
		mb := float64(instrUnits[0].artifactB) / 1e6
		b.put("obs.artifact_mb", mb, "MB", "artifact bytes written per unit")
		b.put("obs.artifact_mb_per_s", mb/median(instrWalls), "MB/s", "")
		// fig10b bakes its seed, so its step's events divide evenly.
		b.put("exp.fig10b_events", baseUnits[0].stepEvents["fig10b"]/float64(len(baseUnits[0].runMS["fig10b"])), "count", "logical events of one fig10b run")
	}
	return nil
}
