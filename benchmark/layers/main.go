//go:build layerbench

// Command layers holds the per-layer rigs of the repository benchmark: an
// outside-in subtractive ladder in which each rig adds one layer on top of
// the previous one, calling only exported constructors and methods, so that
// a layer's own cost is rig(n) - rig(n-1) per operation.
//
// It is the one part of the benchmark that imports prioplus/internal, which
// is why it sits behind the layerbench tag: the runner builds it with
// `-tags layerbench` for traced runs only. Each layer is one file that
// registers itself from init; the runner drops a file that no longer
// compiles and reports that layer unavailable (see ../build.go), so adapters
// must not call into one another — what rungs share goes through ladder.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what the rigs measured.
type report struct {
	Metrics     map[string]metric `json:"metrics"`
	Unavailable map[string]string `json:"unavailable"`
}

func (r *report) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

// ladder is what lower rungs hand to the rungs above. Adapters must not call
// one another directly (any file may be dropped from the build), so shared
// measurements go through here; a nil func or zero value means the rung
// below did not run, and aboveEngineNS then fails the calling rung.
var ladder struct {
	// simEventNS measures, right now and in ~15 ms, what the engine takes
	// to post and dispatch one event on a shallow wheel. Rungs call it
	// next to each of their own timings: on a shared host the speed of the
	// minute matters more than the rig, and pairing the two in time is
	// what keeps their difference meaningful.
	simEventNS func() float64
	// netsimHopNS is one link traversal (transmit + deliver) beyond its events.
	netsimHopNS float64
	// pathDeltaNS, set by the transport rung, returns how much more one
	// data packet + ACK costs under controller b than under a, from
	// alternating flows on the one-hop rig. a and b receive the rig's base
	// RTT (in sim.Time units) and BDP in packets and return a cc.Algorithm;
	// nil stands for the uncontrolled sender. Typed with any so this file
	// stays free of internal imports.
	pathDeltaNS func(a, b func(baseRTT int64, bdpPkts float64) any) float64
}

// aboveEngineNS times run — ops operations, returning how many events the
// engine dispatched for them — reps times, takes the engine's own event cost
// (measured next to each repetition) out, and returns the median ns per
// operation: the cost of everything above the engine.
func aboveEngineNS(reps, ops int, run func() (events uint64)) float64 {
	if ladder.simEventNS == nil {
		panic("the sim rung did not run; nothing to subtract")
	}
	vals := make([]float64, reps)
	for i := range vals {
		perEvent := ladder.simEventNS()
		start := time.Now()
		events := run()
		ns := float64(time.Since(start).Nanoseconds())
		vals[i] = (ns - float64(events)*perEvent) / float64(ops)
	}
	return medianOf(vals)
}

func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

// layer is one rung: rigs that exercise one package through its public API.
type layer struct {
	name  string
	order int // ladder position; lower runs first
	run   func(r *report)
}

var layers []layer

func register(name string, order int, run func(r *report)) {
	layers = append(layers, layer{name, order, run})
}

// timeOps runs f, which performs n operations, reps times and returns the
// lowest ns/op: the rigs are deterministic CPU loops, so the minimum is the
// run least disturbed by the host.
func timeOps(reps, n int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		ns := float64(time.Since(start).Nanoseconds()) / float64(n)
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// bestMS returns the lowest wall of reps calls to f, in milliseconds.
func bestMS(reps int, f func()) float64 { return timeOps(reps, 1, f) / 1e6 }

// allocsPerOp returns heap allocations per operation of f's n operations.
func allocsPerOp(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func main() {
	rep := &report{Metrics: map[string]metric{}, Unavailable: map[string]string{}}
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].order < layers[j].order })
	for _, l := range layers {
		func() {
			defer func() {
				if p := recover(); p != nil {
					rep.Unavailable[l.name] = fmt.Sprint("rig panicked: ", p)
				}
			}()
			start := time.Now()
			l.run(rep)
			fmt.Fprintf(os.Stderr, "layer %-10s %6.2fs\n", l.name, time.Since(start).Seconds())
		}()
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
