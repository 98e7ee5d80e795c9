package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"prioplus/internal/exp"
	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/serve"
	"prioplus/internal/sim"
)

// runDiff is the `prioplus-sim diff` subcommand: divergence diagnosis over
// digest-chain fingerprints (see -fingerprint and docs/OBSERVABILITY.md).
//
//	prioplus-sim diff A.jsonl B.jsonl
//	prioplus-sim diff -exp fig10b -seed 1 -perturb 10 A.jsonl
//
// The two-artifact form compares recorded checkpoint ladders and localizes
// the first divergent checkpoint window. The rerun form re-executes the
// experiment live against a recorded artifact, localizes the window the
// same way, then re-executes the window with full event recording on both
// sides and names the exact first divergent event — kind, device, packet,
// and clock. Returns 0 when the runs are identical, 1 when they diverge,
// 2 on usage errors.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	expID := fs.String("exp", "", "rerun mode: re-execute this experiment against the recorded artifact")
	seed := fs.Int64("seed", 1, "rerun mode: simulation seed (must match the recorded run)")
	perturb := fs.Uint64("perturb", 0, "rerun mode: inflate the Nth delay-noise draw by 1us in the rerun")
	full := fs.Bool("full", false, "rerun mode: rerun at the paper's full scale (must match the recorded run)")
	fs.Parse(args)

	var res *diffResult
	var err error
	switch {
	case *expID == "" && fs.NArg() == 2:
		res, err = diffArtifacts(fs.Arg(0), fs.Arg(1))
	case *expID != "" && fs.NArg() == 1:
		res, err = diffRerun(fs.Arg(0), *expID, *seed, *full, *perturb)
	default:
		fmt.Fprintln(os.Stderr, "usage: prioplus-sim diff A.jsonl B.jsonl\n"+
			"       prioplus-sim diff -exp ID [-seed N] [-full] [-perturb D] A.jsonl")
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "diff:", err)
		return 2
	}
	res.render(os.Stdout)
	if res.identical {
		return 0
	}
	return 1
}

// ckptRef is one checkpoint in either a recorded artifact or a live
// digest, normalized for comparison.
type ckptRef struct {
	n     uint64  // dispatched-event count
	tUS   float64 // simulated clock at the checkpoint, microseconds
	chain uint64
}

// fpSide is one side of a diff: its label, fingerprint, and checkpoints.
type fpSide struct {
	label  string
	run    string
	chain  uint64
	events uint64
	ckpts  []ckptRef
}

// diffResult is the outcome of a diff, rendered by render. The rerun mode
// additionally pins the exact first divergent event (rec fields non-nil).
type diffResult struct {
	a, b      fpSide
	identical bool

	// Checkpoint window localization: the first divergent event e has
	// winLo < e.Count <= winHi. haveLo/haveHi distinguish "window open at
	// this end" (divergence before the first or after the last comparable
	// checkpoint) from a real bound.
	winLo, winHi     uint64
	haveLo, haveHi   bool
	winLoUS, winHiUS float64

	// Rerun mode only: the exact first divergent event on each side, and
	// the digests that recorded them (for device names).
	recA, recB *sim.EventRec
	digA, digB *sim.Digest
	baseNote   string // non-empty when the base rerun did not reproduce the artifact
}

// artifactSide loads one artifact and normalizes its fingerprint data.
func artifactSide(path string) (fpSide, error) {
	f, err := os.Open(path)
	if err != nil {
		return fpSide{}, err
	}
	defer f.Close()
	a, err := obs.ReadArtifact(f)
	if err != nil {
		return fpSide{}, fmt.Errorf("%s: %w", path, err)
	}
	if a.Fingerprint == "" {
		return fpSide{}, fmt.Errorf("%s has no fingerprint; record it with -fingerprint -series DIR", path)
	}
	chain, err := strconv.ParseUint(a.Fingerprint, 16, 64)
	if err != nil {
		return fpSide{}, fmt.Errorf("%s: bad fingerprint %q", path, a.Fingerprint)
	}
	s := fpSide{label: path, run: a.Run, chain: chain, events: a.FPEvents}
	for _, c := range a.Ckpts {
		h, err := strconv.ParseUint(c.Chain, 16, 64)
		if err != nil {
			return fpSide{}, fmt.Errorf("%s: bad ckpt chain %q", path, c.Chain)
		}
		s.ckpts = append(s.ckpts, ckptRef{n: c.N, tUS: c.TUS, chain: h})
	}
	return s, nil
}

// digestSide normalizes a live digest for comparison.
func digestSide(label string, d *sim.Digest) fpSide {
	s := fpSide{label: label, chain: d.Chain, events: d.Count}
	for _, c := range d.Ckpts {
		s.ckpts = append(s.ckpts, ckptRef{n: c.Count, tUS: c.Clock.Micros(), chain: c.Chain})
	}
	return s
}

// localize walks both checkpoint ladders, comparing chains at equal event
// counts (the ladders may have different intervals after compaction), and
// fills the divergence window on res.
func (res *diffResult) localize() {
	i, j := 0, 0
	a, b := res.a.ckpts, res.b.ckpts
	for i < len(a) && j < len(b) {
		switch {
		case a[i].n < b[j].n:
			i++
		case a[i].n > b[j].n:
			j++
		case a[i].chain == b[j].chain:
			res.winLo, res.winLoUS, res.haveLo = a[i].n, a[i].tUS, true
			i++
			j++
		default:
			res.winHi, res.winHiUS, res.haveHi = a[i].n, a[i].tUS, true
			return
		}
	}
}

// diffArtifacts compares two recorded artifacts.
func diffArtifacts(pathA, pathB string) (*diffResult, error) {
	a, err := artifactSide(pathA)
	if err != nil {
		return nil, err
	}
	b, err := artifactSide(pathB)
	if err != nil {
		return nil, err
	}
	res := &diffResult{a: a, b: b}
	if a.chain == b.chain && a.events == b.events {
		res.identical = true
		return res, nil
	}
	res.localize()
	return res, nil
}

// diffRerun re-executes expID live against the recorded artifact: phase 1
// reruns with a digest to localize the divergent checkpoint window, phase 2
// reruns both configurations with full event recording over that window and
// pins the exact first divergent event.
func diffRerun(path, expID string, seed int64, full bool, perturb uint64) (*diffResult, error) {
	art, err := artifactSide(path)
	if err != nil {
		return nil, err
	}
	live, err := rerunDigest(expID, seed, full, perturb, 0, 0, art.run)
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("rerun %s/seed=%d", expID, seed)
	if perturb != 0 {
		label += fmt.Sprintf("/perturb=%d", perturb)
	}
	res := &diffResult{a: art, b: digestSide(label, live)}
	if art.chain == live.Chain && art.events == live.Count {
		res.identical = true
		return res, nil
	}
	res.localize()

	// Phase 2: re-execute the window on both sides with full event
	// recording. The window is (winLo, winHi] in dispatch counts; an open
	// end falls back to the run edge.
	lo, hi := res.winLo, res.winHi
	if !res.haveHi {
		hi = max(art.events, live.Count)
	}
	baseDig, err := rerunDigest(expID, seed, full, 0, lo+1, hi+1, art.run)
	if err != nil {
		return nil, err
	}
	pertDig, err := rerunDigest(expID, seed, full, perturb, lo+1, hi+1, art.run)
	if err != nil {
		return nil, err
	}
	if baseDig.Chain != art.chain {
		res.baseNote = fmt.Sprintf("base rerun fingerprint %016x does not reproduce the artifact's %016x "+
			"(different binary, scale, or seed?); the event pinpointed below separates the two reruns",
			baseDig.Chain, art.chain)
	}
	res.digA, res.digB = baseDig, pertDig
	res.recA, res.recB = firstDivergentRec(baseDig.Recs, pertDig.Recs)
	return res, nil
}

// rerunDigest runs one experiment with a digest installed (and, when hi>0,
// a full-event recording window) and returns the digest of the run whose
// tag matches the artifact's.
func rerunDigest(expID string, seed int64, full bool, perturb, lo, hi uint64, tag string) (*sim.Digest, error) {
	runs, err := serve.Execute(expID, exp.RunParams{Seed: seed, Full: full, Perturb: perturb},
		serve.Instruments{Fingerprint: true, WindowLo: lo, WindowHi: hi}, io.Discard)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("experiment %q does not wire the observability sink; rerun mode needs one of the instrumented experiments", expID)
	}
	for _, r := range runs {
		if r.Tag == tag {
			return r.Rec.Digest, nil
		}
	}
	if len(runs) == 1 {
		return runs[0].Rec.Digest, nil
	}
	tags := make([]string, 0, len(runs))
	for _, r := range runs {
		tags = append(tags, r.Tag)
	}
	return nil, fmt.Errorf("experiment %q has no run tagged %q (runs: %v)", expID, tag, tags)
}

// firstDivergentRec returns the first pair of recorded events that differ,
// or (nil, nil) when the recorded windows are identical. A side that ends
// early returns a nil rec for that side only.
func firstDivergentRec(a, b []sim.EventRec) (*sim.EventRec, *sim.EventRec) {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i].Clock != b[i].Clock || a[i].Seq != b[i].Seq ||
			a[i].Kind != b[i].Kind || a[i].Pay != b[i].Pay {
			return &a[i], &b[i]
		}
	}
	if len(a) > n {
		return &a[n], nil
	}
	if len(b) > n {
		return nil, &b[n]
	}
	return nil, nil
}

// render writes the human-readable diff report.
func (res *diffResult) render(w io.Writer) {
	for i, s := range []fpSide{res.a, res.b} {
		run := ""
		if s.run != "" {
			run = fmt.Sprintf(" (run %q)", s.run)
		}
		fmt.Fprintf(w, "%c: %s%s: fingerprint %016x over %d events, %d checkpoints\n",
			'A'+i, s.label, run, s.chain, s.events, len(s.ckpts))
	}
	if res.identical {
		fmt.Fprintln(w, "identical: fingerprints and event counts match")
		return
	}
	fmt.Fprintln(w, "DIVERGED")
	switch {
	case res.haveLo && res.haveHi:
		fmt.Fprintf(w, "last matching checkpoint:   event %d @ %.3fus\n", res.winLo, res.winLoUS)
		fmt.Fprintf(w, "first divergent checkpoint: event %d @ %.3fus\n", res.winHi, res.winHiUS)
		fmt.Fprintf(w, "first divergent event lies in window (%d, %d]\n", res.winLo, res.winHi)
	case res.haveHi:
		fmt.Fprintf(w, "first divergent checkpoint: event %d @ %.3fus (the very first comparable checkpoint)\n", res.winHi, res.winHiUS)
		fmt.Fprintf(w, "first divergent event lies in window (0, %d]\n", res.winHi)
	case res.haveLo:
		fmt.Fprintf(w, "last matching checkpoint:   event %d @ %.3fus; divergence is after it\n", res.winLo, res.winLoUS)
	default:
		fmt.Fprintln(w, "no comparable checkpoints; the runs differ from the start or use disjoint ladders")
	}
	if res.baseNote != "" {
		fmt.Fprintf(w, "note: %s\n", res.baseNote)
	}
	switch {
	case res.recA != nil && res.recB != nil:
		fmt.Fprintf(w, "first divergent event: dispatch #%d\n", res.recA.Count)
		fmt.Fprintf(w, "  base:      %s\n", renderRec(res.digA, *res.recA))
		fmt.Fprintf(w, "  perturbed: %s\n", renderRec(res.digB, *res.recB))
	case res.recA != nil:
		fmt.Fprintf(w, "first divergent event: dispatch #%d — only the base run reaches it\n", res.recA.Count)
		fmt.Fprintf(w, "  base:      %s\n", renderRec(res.digA, *res.recA))
	case res.recB != nil:
		fmt.Fprintf(w, "first divergent event: dispatch #%d — only the perturbed run reaches it\n", res.recB.Count)
		fmt.Fprintf(w, "  perturbed: %s\n", renderRec(res.digB, *res.recB))
	case res.digA != nil:
		fmt.Fprintln(w, "recorded windows are identical; divergence is outside the localized window")
	default:
		fmt.Fprintf(w, "rerun with: prioplus-sim diff -exp ID -seed N [-perturb D] %s to pinpoint the exact event\n", res.a.label)
	}
	if res.digA != nil && (res.digA.Truncated() || res.digB.Truncated()) {
		fmt.Fprintln(w, "note: the recording window overflowed and was truncated; the pinpointed event is the first divergence within the recorded prefix")
	}
}

// renderRec formats one recorded event with kind, clock, and decoded
// payload context.
func renderRec(d *sim.Digest, r sim.EventRec) string {
	s := fmt.Sprintf("t=%.3fus seq=%d kind=%s", r.Clock.Micros(), r.Seq, sim.EventKindName(r.Kind))
	if r.PayN == 0 {
		return s + " (no instrumented payload)"
	}
	dev := ""
	if d != nil && d.Names != nil {
		dev = d.Names[r.PayTag]
	}
	if dev == "" {
		dev = fmt.Sprintf("tag%d", r.PayTag)
	}
	s += fmt.Sprintf(" dev=%s %s", dev, netsim.DescribeDigestPayload(r.PayA, r.PayB))
	if r.PayN > 1 {
		s += fmt.Sprintf(" (+%d more payload folds)", r.PayN-1)
	}
	return s
}
