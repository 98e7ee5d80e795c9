// Package stats collects and summarizes flow-level metrics: FCT, slowdown
// against the ideal completion time, per-size-class breakdowns matching the
// paper's figures (small < 300 KB, middle 300 KB-6 MB, large >= 6 MB), and
// coflow completion times.
package stats

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"prioplus/internal/sim"
)

// SizeClass buckets flows the way Fig 11 and Fig 14 do.
type SizeClass int

// Size classes from the paper's flow-scheduling breakdown.
const (
	Small  SizeClass = iota // [0, 300 KB)
	Middle                  // [300 KB, 6 MB)
	Large                   // [6 MB, ...)
)

// String returns the paper's name for the size class (small/middle/large).
func (c SizeClass) String() string {
	switch c {
	case Small:
		return "small"
	case Middle:
		return "middle"
	case Large:
		return "large"
	}
	return "?"
}

// ClassOf returns the paper's size class for a flow size.
func ClassOf(size int64) SizeClass {
	switch {
	case size < 300_000:
		return Small
	case size < 6_000_000:
		return Middle
	default:
		return Large
	}
}

// FlowRecord is one completed flow.
type FlowRecord struct {
	Size  int64
	FCT   sim.Time
	Ideal sim.Time // size/bandwidth + base RTT
	Prio  int
}

// Slowdown is FCT normalized by the ideal FCT.
func (r FlowRecord) Slowdown() float64 {
	if r.Ideal <= 0 {
		return 1
	}
	return float64(r.FCT) / float64(r.Ideal)
}

// Collector accumulates completed flows.
type Collector struct {
	Flows []FlowRecord

	// Percentile cache: Flows' slowdowns sorted, built lazily on the first
	// percentile query and reused until Flows grows, so a report asking for
	// p50/p90/p99/p999 sorts once instead of once per quantile. Values are
	// exact — the cache changes cost, not results.
	sortedSlow []float64
}

// Add records a completed flow.
func (c *Collector) Add(r FlowRecord) { c.Flows = append(c.Flows, r) }

// Filter returns the subset of flows matching the predicate.
func (c *Collector) Filter(keep func(FlowRecord) bool) *Collector {
	out := &Collector{}
	for _, f := range c.Flows {
		if keep(f) {
			out.Flows = append(out.Flows, f)
		}
	}
	return out
}

// ByClass returns flows in the given size class.
func (c *Collector) ByClass(cl SizeClass) *Collector {
	return c.Filter(func(f FlowRecord) bool { return ClassOf(f.Size) == cl })
}

// Count returns the number of flows collected.
func (c *Collector) Count() int { return len(c.Flows) }

// MeanFCT returns the mean flow completion time.
func (c *Collector) MeanFCT() sim.Time {
	if len(c.Flows) == 0 {
		return 0
	}
	var sum sim.Time
	for _, f := range c.Flows {
		sum += f.FCT
	}
	return sum / sim.Time(len(c.Flows))
}

// MeanSlowdown returns the mean FCT slowdown.
func (c *Collector) MeanSlowdown() float64 {
	if len(c.Flows) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range c.Flows {
		sum += f.Slowdown()
	}
	return sum / float64(len(c.Flows))
}

// PercentileSlowdown returns the p-quantile (0..1) of slowdown.
func (c *Collector) PercentileSlowdown(p float64) float64 {
	if len(c.Flows) == 0 {
		return 0
	}
	s := c.slowSorted()
	return s[int(p*float64(len(s)-1))]
}

// slowSorted returns the slowdowns in ascending order, cached; the cache is
// rebuilt whenever Flows has grown since it was taken (flows are only ever
// appended, so a length check suffices).
func (c *Collector) slowSorted() []float64 {
	if len(c.sortedSlow) != len(c.Flows) {
		c.sortedSlow = make([]float64, len(c.Flows))
		for i, f := range c.Flows {
			c.sortedSlow[i] = f.Slowdown()
		}
		sort.Float64s(c.sortedSlow)
	}
	return c.sortedSlow
}

// Table renders aligned rows for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range t.header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range t.rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
