package main

import (
	"os"
	"regexp"
	"sort"
	"testing"
)

// endToEndNames is what runCLIWorkload and runServeWorkload put for an
// untraced run; BENCHMARK.json must list exactly these.
var endToEndNames = []string{
	"wall_s", "mevents_per_s", "peak_rss_mb", "miss_p50_ms", "miss_p95_ms",
	"hit_p50_ms", "jobs_per_s", "setup_s",
}

func TestCatalogueMatchesRunner(t *testing.T) {
	cat, err := loadCatalog("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, d := range cat.EndToEnd {
		got = append(got, d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	want = append(want, endToEndNames...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("end_to_end lists %v, the runner reports %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("end_to_end lists %v, the runner reports %v", got, want)
		}
	}
	if len(cat.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(cat.Workloads), len(workloadNames))
	}
	for _, w := range workloadNames {
		if !cat.hasWorkload(w) {
			t.Errorf("workload %s missing from BENCHMARK.json", w)
		}
	}
}

// Every per-layer name the runner or an adapter puts must be declared, or a
// traced run would silently drop it; every declared one must be produced
// somewhere, or it would read "not measured" for ever.
func TestPerLayerNamesDeclared(t *testing.T) {
	cat, err := loadCatalog("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	put := regexp.MustCompile(`\.put\("([a-z0-9_.]+)"(\s*\+\s*(\w+)(?:\s*\+\s*"([a-z0-9_.]+)")?)?`)
	files := []string{"cli.go", "serveload.go", "main.go"}
	adapters, err := os.ReadDir("layers")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range adapters {
		files = append(files, "layers/"+e.Name())
	}
	expand := map[string][]string{
		"exp":  {"fig10b", "faultsweep", "fig11", "fig16"},
		"k":    costKinds,
		"step": {"fig10b", "faultsweep"},
	}
	produced := map[string]bool{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range put.FindAllStringSubmatch(string(src), -1) {
			names := []string{m[1]}
			if m[2] != "" {
				names = nil
				vals, ok := expand[m[3]]
				if !ok {
					t.Fatalf("%s: metric name built from %q, which this test cannot expand", f, m[3])
				}
				for _, v := range vals {
					names = append(names, m[1]+v+m[4])
				}
			}
			for _, name := range names {
				produced[name] = true
				if cat.kind(name) == "" {
					t.Errorf("%s puts %q, which BENCHMARK.json does not declare", f, name)
				}
			}
		}
	}
	for _, d := range cat.PerLayer {
		if !produced[d.Name] {
			t.Errorf("BENCHMARK.json declares %q, which nothing produces", d.Name)
		}
	}
}

// kind reports which list declares the metric: "end_to_end", "per_layer" or "".
func (c *catalog) kind(name string) string {
	for _, d := range c.EndToEnd {
		if d.Name == name {
			return "end_to_end"
		}
	}
	for _, d := range c.PerLayer {
		if d.Name == name {
			return "per_layer"
		}
	}
	return ""
}
