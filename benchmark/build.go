package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// buildSim compiles ./cmd/prioplus-sim into buildDir and returns its path
// and how long the build took. The output path is stable, so an up-to-date
// binary costs a staleness check, not a link.
func buildSim(ctx context.Context, root, buildDir string) (string, float64, error) {
	bin := filepath.Join(buildDir, "prioplus-sim")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/prioplus-sim")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/prioplus-sim: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

var layerFileRE = regexp.MustCompile(`(?m)^(?:layers/|\./)?([a-z_]+\.go):\d+`)

// buildLayers compiles ./layers with -tags layerbench. Each adapter file
// registers its layer from init, so when one stops compiling — an internal
// API it called was renamed — the build is retried without the files the
// compiler blamed and only their layers go unavailable. It returns the
// binary (empty if nothing builds) and file -> first compiler error.
func (b *bench) buildLayers() (string, map[string]string) {
	dir := filepath.Join(b.root, "benchmark", "layers")
	bin := filepath.Join(b.buildDir, "layerbench")
	entries, _ := os.ReadDir(dir)
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			files = append(files, e.Name())
		}
	}
	broken := map[string]string{}
	for len(files) > 0 {
		args := append([]string{"build", "-tags", "layerbench", "-o", bin}, files...)
		cmd := exec.CommandContext(b.ctx, "go", args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err == nil {
			return bin, broken
		}
		blamed := map[string]string{}
		for _, m := range layerFileRE.FindAllStringSubmatchIndex(string(out), -1) {
			file := string(out[m[2]:m[3]])
			if _, seen := blamed[file]; !seen {
				line := string(out[m[0]:])
				if i := strings.IndexByte(line, '\n'); i >= 0 {
					line = line[:i]
				}
				blamed[file] = line
			}
		}
		delete(blamed, "main.go") // the registry itself: nothing to fall back to
		if len(blamed) == 0 {
			broken["*"] = lastLine(string(out))
			return "", broken
		}
		kept := files[:0]
		for _, f := range files {
			if msg, bad := blamed[f]; bad {
				broken[f] = msg
			} else {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	return "", broken
}

// runLayers builds and runs the per-layer rigs and merges what they report.
// Nothing here can fail the run: a layer that does not build or crashes is
// reported unavailable on stderr and its metrics stay notMeasured.
func (b *bench) runLayers() {
	start := time.Now()
	bin, broken := b.buildLayers()
	names := make([]string, 0, len(broken))
	for f := range broken {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		fmt.Fprintf(os.Stderr, "layer adapter %s unavailable: %s\n", f, broken[f])
	}
	if bin == "" {
		return
	}
	ctx, cancel := context.WithTimeout(b.ctx, 90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin)
	cmd.Dir = b.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	runStart := time.Now()
	out, err := cmd.Output()
	b.spans.add(0, "layers", "layers.run", runStart, time.Now())
	if err != nil {
		fmt.Fprintf(os.Stderr, "layer rigs unavailable: %v: %s\n", err, lastLine(stderr.String()))
		return
	}
	var rep struct {
		Metrics     map[string]metric `json:"metrics"`
		Unavailable map[string]string `json:"unavailable"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "layer rigs unavailable: bad report: %v\n", err)
		return
	}
	for layer, why := range rep.Unavailable {
		fmt.Fprintf(os.Stderr, "layer %s unavailable: %s\n", layer, why)
	}
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.put(k, rep.Metrics[k].Value, rep.Metrics[k].Unit, "layer rig")
	}
	fmt.Fprintf(os.Stderr, "layer rigs: %d metrics in %.1fs (build + run)\n", len(keys), time.Since(start).Seconds())
}
