// Package experiments reproduces every table and figure of the paper's
// evaluation on the simulated stack. Each experiment builds its scenario
// (host, VMs, containers, workloads), runs it on virtual time, and emits
// the same rows/series the paper reports.
//
// Geometry is scaled 1/4 in memory and 1/4 in duration relative to the
// paper's testbed (32 GB host, 2400 s runs) so a full experiment sweep
// completes in seconds to minutes of wall-clock time; all ratios between
// working sets, container limits and cache sizes are preserved, which is
// what the paper's shapes depend on. EXPERIMENTS.md records paper-vs-
// measured values for every artifact.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"doubledecker/internal/metrics"
)

// MiB is a byte multiplier.
const MiB = int64(1) << 20

// GiB is a byte multiplier.
const GiB = int64(1) << 30

// Opts controls experiment execution.
type Opts struct {
	// Seed drives all randomness; fixed seed = identical results.
	Seed int64
	// Stretch multiplies experiment durations. 1.0 reproduces the scaled
	// paper timeline; tests and smoke runs use smaller values.
	Stretch float64
	// Sample is the occupancy sampling period for figure series.
	Sample time.Duration
}

// DefaultOpts returns the full-length configuration.
func DefaultOpts() Opts {
	return Opts{Seed: 42, Stretch: 1.0, Sample: 5 * time.Second}
}

// QuickOpts returns a short smoke-run configuration (for tests).
func QuickOpts() Opts {
	return Opts{Seed: 42, Stretch: 0.12, Sample: 2 * time.Second}
}

// scaled returns d adjusted by the Stretch factor.
func (o Opts) scaled(d time.Duration) time.Duration {
	if o.Stretch <= 0 {
		return d
	}
	return time.Duration(float64(d) * o.Stretch)
}

// scaledCount returns n adjusted by the Stretch factor, rounded and
// floored at floor.
func (o Opts) scaledCount(n, floor int) int {
	if o.Stretch <= 0 {
		return n
	}
	return max(floor, int(math.Round(float64(n)*o.Stretch)))
}

// Table is one tabular artifact (a paper table, or the numeric legend of
// a figure).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Result is the output of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []Table
	// Series holds occupancy curves in MiB over virtual time, keyed by
	// curve name; SeriesOrder fixes presentation order.
	Series      map[string]*metrics.Series
	SeriesOrder []string
	Notes       []string
	// Metrics are the run's named numbers, flat and machine-readable;
	// Gates are the bounds on them the run must meet.
	Metrics map[string]float64
	Gates   []Gate
}

// Gate is one condition an experiment declares on its own metrics.
type Gate struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"` // ">=", ">", "<=" or "=="
	Bound  float64 `json:"bound"`
}

// Check evaluates the gate against metrics. A missing metric or an
// unknown op fails.
func (g Gate) Check(metrics map[string]float64) (value float64, pass bool) {
	v, ok := metrics[g.Metric]
	if !ok {
		return 0, false
	}
	switch g.Op {
	case ">=":
		return v, v >= g.Bound
	case ">":
		return v, v > g.Bound
	case "<=":
		return v, v <= g.Bound
	case "==":
		return v, v == g.Bound
	}
	return v, false
}

// String renders the gate as "metric op bound".
func (g Gate) String() string { return fmt.Sprintf("%s %s %g", g.Metric, g.Op, g.Bound) }

// newResult initializes an empty result.
func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Series: make(map[string]*metrics.Series),
		Metrics: make(map[string]float64)}
}

// addMetrics records each of kv under prefix+name.
func (r *Result) addMetrics(prefix string, kv map[string]float64) {
	for k, v := range kv {
		r.Metrics[prefix+k] = v
	}
}

// gate declares a bound the run must meet.
func (r *Result) gate(metric, op string, bound float64) {
	r.Gates = append(r.Gates, Gate{Metric: metric, Op: op, Bound: bound})
}

// addSeries registers a named curve.
func (r *Result) addSeries(name string) *metrics.Series {
	s := metrics.NewSeries(name)
	r.Series[name] = s
	r.SeriesOrder = append(r.SeriesOrder, name)
	return s
}

// note appends a free-form annotation.
func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Format renders the result for terminal output: tables in full, series
// downsampled to at most 24 points.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(formatTable(t))
	}
	for _, name := range r.SeriesOrder {
		s := r.Series[name]
		if s.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n-- series %s (MiB over time) --\n", name)
		b.WriteString(formatSeries(s, 24))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// formatTable renders an aligned ASCII table.
func formatTable(t Table) string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "\n-- %s --\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// formatSeries prints a downsampled time series.
func formatSeries(s *metrics.Series, maxPoints int) string {
	pts := s.Points()
	if len(pts) == 0 {
		return ""
	}
	stride := 1
	if len(pts) > maxPoints {
		stride = len(pts) / maxPoints
	}
	var b strings.Builder
	for i := 0; i < len(pts); i += stride {
		fmt.Fprintf(&b, "  t=%7.0fs  %8.1f\n", pts[i].At.Seconds(), pts[i].Value)
	}
	last := pts[len(pts)-1]
	if (len(pts)-1)%stride != 0 {
		fmt.Fprintf(&b, "  t=%7.0fs  %8.1f\n", last.At.Seconds(), last.Value)
	}
	return b.String()
}

// seriesMeanWindow averages a series over [from, to] of virtual time.
func seriesMeanWindow(s *metrics.Series, from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points() {
		if p.At >= from && p.At <= to {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// mib converts bytes to MiB as a float for reporting.
func mib(bytes int64) float64 { return float64(bytes) / float64(MiB) }

// f1, f2 format floats with fixed precision for table cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// Runner executes one experiment.
type Runner func(Opts) *Result

// Lookup finds an experiment by id.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
