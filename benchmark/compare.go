package main

import (
	"errors"
	"fmt"
	"os"
)

// compareFiles prints, for every (end-to-end metric, workload) the two
// result files share, both medians, the change in the worse direction as a
// share of A, the metric's bound and a verdict:
//
//	ok          B's median is not worse than A's by more than the bound
//	worse       it is, and the spread is narrow enough to say so
//	unresolved  a side's quartile spread is wider than the bound, so a
//	            change of bound size cannot be told from noise — unless every
//	            run of B reads better than every run of A
//
// Per-layer metrics with unit "count" repeat exactly on one commit; any
// difference between their medians is listed. Returns 1 if anything is worse.
func compareFiles(cat *catalog, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareResults(cat, a, b)
}

// values collects one metric of one workload across a file's runs of a mode.
func values(rf *resultFile, workload, name string, trace bool) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace && m.Value != notMeasured {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict applies the rule above to one metric's two sample sets.
func verdict(def metricDef, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
		if def.Better == "higher" {
			delta = -delta
		}
	}
	if quartileSpread(a) > def.Bound || quartileSpread(b) > def.Bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if def.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return delta, "unresolved"
		}
	}
	if delta > def.Bound {
		return delta, "worse"
	}
	return delta, "ok"
}

func compareResults(cat *catalog, a, b *resultFile) int {
	fmt.Printf("A: commit %s, %s, nproc %d, %s, load %s\n", a.Host.GitCommit, a.Host.CPUModel, a.Host.NProc, a.Host.GoVersion, a.Host.LoadAvg)
	fmt.Printf("B: commit %s, %s, nproc %d, %s, load %s\n", b.Host.GitCommit, b.Host.CPUModel, b.Host.NProc, b.Host.GoVersion, b.Host.LoadAvg)
	fmt.Printf("%-15s %-16s %12s %12s %9s %7s  %-10s %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict", "runs A/B, spread A/B")
	code := 0
	for _, w := range cat.Workloads {
		for _, def := range cat.EndToEnd {
			va, vb := values(a, w.Name, def.Name, false), values(b, w.Name, def.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			delta, v := verdict(def, va, vb)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-15s %-16s %12.5g %12.5g %+8.1f%% %6.0f%%  %-10s %d/%d, %.1f%%/%.1f%%\n",
				w.Name, def.Name, median(va), median(vb), 100*delta, 100*def.Bound, v,
				len(va), len(vb), 100*quartileSpread(va), 100*quartileSpread(vb))
		}
		for _, def := range cat.PerLayer {
			if def.Unit != "count" {
				continue
			}
			va, vb := values(a, w.Name, def.Name, true), values(b, w.Name, def.Name, true)
			if len(va) > 0 && len(vb) > 0 && median(va) != median(vb) {
				fmt.Printf("%-15s %-34s exact count differs: %g vs %g\n", w.Name, def.Name, median(va), median(vb))
			}
		}
	}
	return code
}
