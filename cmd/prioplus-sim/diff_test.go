package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"prioplus/internal/exp"
	"prioplus/internal/serve"
)

// recordFig10b runs fig10b with -fingerprint -series into dir and returns
// the artifact path.
func recordFig10b(t *testing.T, dir string, perturb uint64) string {
	t.Helper()
	ins := serve.Instruments{Series: true, Dir: dir, Fingerprint: true}
	if _, err := serve.Execute("fig10b", exp.RunParams{Seed: 1, Perturb: perturb}, ins, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "fig10b__incast__seed1.jsonl")
}

// TestDiffPinpointsPerturbedDraw is the divergence-diagnosis acceptance
// test: record an artifact, rerun with a single delay-noise draw inflated,
// and diff must localize a checkpoint window and then name the exact first
// divergent event inside it, with kind and clock context on both sides.
func TestDiffPinpointsPerturbedDraw(t *testing.T) {
	path := recordFig10b(t, t.TempDir(), 0)

	res, err := diffRerun(path, "fig10b", 1, false, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.identical {
		t.Fatal("perturbed rerun reported identical")
	}
	if !res.haveHi {
		t.Fatal("no divergent checkpoint found; window not localized")
	}
	if res.baseNote != "" {
		t.Fatalf("base rerun failed to reproduce the artifact: %s", res.baseNote)
	}
	if res.recA == nil || res.recB == nil {
		t.Fatalf("exact divergent event not pinned: recA=%v recB=%v", res.recA, res.recB)
	}
	// Both windows record every dispatch in [lo+1, hi+1), so the first
	// divergent pair sits at the same dispatch count on both sides, inside
	// the localized window.
	if res.recA.Count != res.recB.Count {
		t.Fatalf("divergent recs at different dispatch counts: %d vs %d", res.recA.Count, res.recB.Count)
	}
	if res.recA.Count <= res.winLo || res.recA.Count > res.winHi {
		t.Fatalf("divergent event %d outside window (%d, %d]", res.recA.Count, res.winLo, res.winHi)
	}
	if *res.recA == *res.recB {
		t.Fatal("pinned events are identical")
	}

	var buf bytes.Buffer
	res.render(&buf)
	out := buf.String()
	for _, want := range []string{"DIVERGED", "first divergent event: dispatch #", "kind=", "t="} {
		if !strings.Contains(out, want) {
			t.Errorf("diff report missing %q:\n%s", want, out)
		}
	}

	// The unperturbed rerun must reproduce the artifact exactly.
	same, err := diffRerun(path, "fig10b", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !same.identical {
		t.Fatal("unperturbed rerun did not reproduce the recorded artifact")
	}
}

// TestFingerprintFigureBytes pins the "-fingerprint never changes figure
// output" contract: the fingerprinted run's output minus its `# fingerprint`
// lines must be byte-identical to a plain run. fig10b is one single-switch
// run, faultsweep four fat-tree runs with a link flap; the manifest gate
// pins the fingerprinted bytes of both, so this pins the plain ones too.
func TestFingerprintFigureBytes(t *testing.T) {
	for _, id := range []string{"fig10b", "faultsweep"} {
		var plain, fp bytes.Buffer
		if _, err := serve.Execute(id, exp.RunParams{Seed: 1}, serve.Instruments{}, nil, &plain); err != nil {
			t.Fatal(err)
		}
		if _, err := serve.Execute(id, exp.RunParams{Seed: 1}, serve.Instruments{Fingerprint: true}, nil, &fp); err != nil {
			t.Fatal(err)
		}
		var stripped strings.Builder
		found := false
		for _, line := range strings.SplitAfter(fp.String(), "\n") {
			if strings.HasPrefix(line, "# fingerprint ") {
				found = true
				continue
			}
			stripped.WriteString(line)
		}
		if !found {
			t.Fatalf("%s: fingerprinted run printed no # fingerprint line", id)
		}
		if plain.String() != stripped.String() {
			t.Errorf("%s: figure bytes changed under -fingerprint:\nplain:\n%s\nfingerprinted (stripped):\n%s",
				id, plain.String(), stripped.String())
		}
	}
}

// TestDiffArtifacts covers the two-artifact mode: identical recordings
// compare clean, a perturbed recording diverges with a localized window.
func TestDiffArtifacts(t *testing.T) {
	base := recordFig10b(t, t.TempDir(), 0)
	baseCopy := recordFig10b(t, t.TempDir(), 0)
	pert := recordFig10b(t, t.TempDir(), 10)

	res, err := diffArtifacts(base, baseCopy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.identical {
		t.Fatal("two identical recordings reported as diverged")
	}

	res, err = diffArtifacts(base, pert)
	if err != nil {
		t.Fatal(err)
	}
	if res.identical {
		t.Fatal("perturbed recording reported as identical")
	}
	if !res.haveHi {
		t.Fatal("no divergent checkpoint localized")
	}
	var buf bytes.Buffer
	res.render(&buf)
	if !strings.Contains(buf.String(), "DIVERGED") {
		t.Errorf("report missing DIVERGED:\n%s", buf.String())
	}
}

// TestDiffRejectsUnfingerprintedArtifact: an artifact recorded without
// -fingerprint is a loud error pointing at the flag.
func TestDiffRejectsUnfingerprintedArtifact(t *testing.T) {
	dir := t.TempDir()
	ins := serve.Instruments{Series: true, Dir: dir}
	if _, err := serve.Execute("fig10b", exp.RunParams{Seed: 1}, ins, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fig10b__incast__seed1.jsonl")
	_, err := diffArtifacts(path, path)
	if err == nil || !strings.Contains(err.Error(), "-fingerprint") {
		t.Fatalf("err = %v, want a -fingerprint hint", err)
	}
}

// TestManifestCheck pins the fingerprint-gate contract: a written manifest
// verifies, a flipped hash fails naming the run, and a run the manifest does
// not cover — absent, or not at the quick unperturbed scale it was generated
// from — fails too.
func TestManifestCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.json")
	fps := map[string]string{"fig9/seed=1": "00aabb", "fig10b/seed=1": "ccdd33"}
	if err := serve.WriteManifest(path, fps); err != nil {
		t.Fatal(err)
	}
	quick := exp.RunParams{}
	if err := checkFingerprints(path, quick, fps); err != nil {
		t.Fatalf("clean check failed: %v", err)
	}
	bad := map[string]string{"fig9/seed=1": "00aabb", "fig10b/seed=1": "ffffff"}
	err := checkFingerprints(path, quick, bad)
	if err == nil || !strings.Contains(err.Error(), "fig10b/seed=1") {
		t.Fatalf("mismatch err = %v, want it to name fig10b/seed=1", err)
	}
	extra := map[string]string{"fig9/seed=1": "00aabb", "fig99/seed=1": "123456"}
	err = checkFingerprints(path, quick, extra)
	if err == nil || !strings.Contains(err.Error(), "not in manifest") {
		t.Fatalf("missing-run err = %v, want a not-in-manifest message", err)
	}
	err = checkFingerprints(path, exp.RunParams{Full: true}, fps)
	if err == nil || !strings.Contains(err.Error(), "not in manifest") {
		t.Fatalf("full-scale err = %v, want a not-in-manifest message", err)
	}
	// A subset batch (e.g. -only) ignores manifest entries it didn't run.
	if err := checkFingerprints(path, quick, map[string]string{"fig9/seed=1": "00aabb"}); err != nil {
		t.Fatalf("subset check failed: %v", err)
	}
}
