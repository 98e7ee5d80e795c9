package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Everything the program under test receives is generated here from -seed
// and nothing else, so two runs with one seed submit byte-identical inputs.

// The five workloads, in the order `-workload all` runs them.
var workloadNames = []string{"star_micro", "fattree_faults", "flowsched", "obs_full", "serve_mixed"}

// starIDs are the single-switch experiments of star_micro. They bake their
// own seeds, so every pass must produce the same bytes whatever -seeds says;
// the runner checks that.
var starIDs = []string{
	"fig3a", "fig3b", "fig3c", "fig3d", "fig8", "fig9", "fig10a", "fig10b",
	"fig10c", "fig10d", "tab2", "appd", "ablation", "ext-ecn", "ext-weighted",
}

// obsFlags arm every observability hook the CLI has; %s is the artifact
// directory of the step.
var obsFlags = []string{"-series", "%s", "-hist", "-cost", "-fingerprint", "-audit", "-trace-flows", "4"}

// traceFlags are what a traced run adds to a plain CLI step so the program's
// own per-event-kind cost attribution is captured.
var traceFlags = []string{"-series", "%s", "-cost"}

// cliStep is one `prioplus-sim all` process of a unit.
type cliStep struct {
	Name  string   // label in spans and per-step metrics
	IDs   []string // -only
	Seeds []int64  // -seeds
	Obs   bool     // run with obsFlags
	// ExpectS is this step's wall on the reference machine; the process is
	// killed and its runs counted failed after 3x this (never under 20 s).
	ExpectS float64
}

// runs is the number of (experiment, seed) runs the step performs.
func (s cliStep) runs() int { return len(s.IDs) * len(s.Seeds) }

func seedRange(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}

func seedsArg(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, ",")
}

// cliUnit returns the processes of one unit of a CLI workload: the fixed
// amount of work whose wall is one wall_s sample. A run repeats the unit for
// as long as -seconds allows and reports the median. Only star_micro's unit
// depends on pass, and only in the seed value its experiments must ignore.
// fattree_faults draws its seeds from -seed (as serve_mixed does its
// schedule); star_micro, flowsched and obs_full run fixed inputs.
func cliUnit(workload string, seed int64, pass int) ([]cliStep, error) {
	base := seed * 1000
	switch workload {
	case "star_micro":
		return []cliStep{{Name: "star", IDs: starIDs, Seeds: []int64{base + 1 + int64(pass)}, ExpectS: 1.6}}, nil
	case "fattree_faults":
		return []cliStep{{Name: "faultsweep", IDs: []string{"faultsweep"}, Seeds: seedRange(base+1, 4), ExpectS: 4.9}}, nil
	case "flowsched":
		// Seed 1, not a seed drawn from -seed: the Poisson draw moves this
		// run's wall by +-15%, which would make wall_s measure the draw.
		return []cliStep{{Name: "fig16", IDs: []string{"fig16"}, Seeds: []int64{1}, ExpectS: 5}}, nil
	case "obs_full":
		// Fixed inputs: fig10b bakes its seed, and faultsweep runs seed 1
		// so that every unit carries a manifest-checked run of each.
		return []cliStep{
			{Name: "fig10b", IDs: []string{"fig10b"}, Seeds: seedRange(1, 6), Obs: true, ExpectS: 0.5},
			{Name: "faultsweep", IDs: []string{"faultsweep"}, Seeds: []int64{1}, Obs: true, ExpectS: 1.9},
		}, nil
	}
	return nil, fmt.Errorf("%q is not a CLI workload", workload)
}

// tracedOnce returns steps a traced run of the workload executes once, after
// its units, for per-layer metrics only: fig11 is the paper's headline
// flow-scheduling figure, but at 12 s it cannot repeat inside a run, and a
// single sample of it moves 15% with the host's bursts — so the timed unit is
// fig16 (the same scenario, three schemes) and fig11 is reported untimed.
func tracedOnce(workload string) []cliStep {
	if workload == "flowsched" {
		return []cliStep{{Name: "fig11", IDs: []string{"fig11"}, Seeds: []int64{1}, ExpectS: 12.5}}
	}
	return nil
}

// Job-server schedule.

const (
	serveClients   = 2  // closed-loop connections: each waits for its reply before the next request
	blockRequests  = 96 // per client per round: blockMisses misses, the rest hits
	blockMisses    = 32 // one of each serveIDs x {plain, plain, plain, artifact}
	warmupRequests = 12 // per client, untimed, ahead of the first round
	warmupMisses   = 4
	hitWindow      = 16 // a hit repeats one of the client's last hitWindow miss specs
)

// serveIDs are the experiments misses draw from: fig2 computes in ~0.1 ms and
// so isolates pure service overhead; the rest are 10-50 ms single-switch runs.
var serveIDs = []string{"fig2", "tab2", "fig3a", "ext-ecn", "fig8", "fig10b", "fig3c", "fig10c"}

// recordsArtifacts marks the serveIDs whose drivers wire a recorder: only
// their artifact jobs return artifact lines (and report an event count); for
// the others "artifact": true changes the cache key and the fetch format only.
var recordsArtifacts = map[string]bool{"fig8": true, "fig10b": true}

// request is one submit -> poll -> fetch exchange of a client.
type request struct {
	Hit      bool   `json:"hit"`
	Exp      string `json:"experiment"`
	Perturb  uint64 `json:"perturb"`
	Artifact bool   `json:"artifact"`
}

// key identifies the spec the way the server's cache does.
func (r request) key() string { return fmt.Sprintf("%s/%d/%t", r.Exp, r.Perturb, r.Artifact) }

// body is the POST /jobs payload.
func (r request) body() string {
	return fmt.Sprintf(`{"experiment":%q,"params":{"perturb":%d},"artifact":%t}`, r.Exp, r.Perturb, r.Artifact)
}

// clientStream generates one client's endless request sequence.
//
// Misses are made unique through params.perturb, which is part of the cache
// key: client c's m-th miss carries perturb 1+c+serveClients*m, a value no
// other miss of either client has. The exception is client 0's first use of
// each experiment, left unperturbed so the server's manifest cross-check
// (and the runner's) sees a spec the manifest covers. A hit repeats one of
// the client's own last hitWindow miss specs; the client has already
// received that result, so the server must answer from its cache: with two
// clients at most 2*hitWindow specs are live, under the server's 64 entries.
type clientStream struct {
	client int
	rng    *rand.Rand
	misses []request // every miss issued so far, oldest first
	fresh  map[string]bool
}

func newClientStream(seed int64, client int) *clientStream {
	return &clientStream{
		client: client,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1)),
		fresh:  map[string]bool{},
	}
}

// block returns the next n requests, exactly nMiss of them misses. Every
// full block (blockRequests, blockMisses) holds each serveIDs entry three
// times plain and once with an artifact, so rounds do equal work and differ
// only in order and in which results the hits repeat.
func (s *clientStream) block(n, nMiss int) []request {
	isMiss := make([]bool, n)
	for i := 0; i < nMiss; i++ {
		isMiss[i] = true
	}
	s.rng.Shuffle(n, func(i, j int) { isMiss[i], isMiss[j] = isMiss[j], isMiss[i] })
	if len(s.misses) == 0 && !isMiss[0] { // nothing to repeat yet
		for i := range isMiss {
			if isMiss[i] {
				isMiss[0], isMiss[i] = true, false
				break
			}
		}
	}
	variants := make([]request, 0, nMiss)
	for v := 0; len(variants) < nMiss; v++ {
		for _, id := range serveIDs {
			if len(variants) < nMiss {
				variants = append(variants, request{Exp: id, Artifact: v%4 == 3})
			}
		}
	}
	s.rng.Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })

	out := make([]request, 0, n)
	for _, miss := range isMiss {
		if !miss {
			w := len(s.misses)
			if w > hitWindow {
				w = hitWindow
			}
			r := s.misses[len(s.misses)-1-s.rng.Intn(w)]
			r.Hit = true
			out = append(out, r)
			continue
		}
		r := variants[0]
		variants = variants[1:]
		if s.client == 0 && !s.fresh[r.Exp] {
			s.fresh[r.Exp] = true
		} else {
			r.Perturb = uint64(1 + s.client + serveClients*len(s.misses))
		}
		s.misses = append(s.misses, r)
		out = append(out, r)
	}
	return out
}

// scheduleCounts tallies a request list the way the server's counters will.
func scheduleCounts(reqs []request) (hits, misses, artifacts int) {
	for _, r := range reqs {
		if r.Hit {
			hits++
		} else {
			misses++
		}
		if r.Artifact {
			artifacts++
		}
	}
	return
}
