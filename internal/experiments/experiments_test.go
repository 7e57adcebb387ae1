package experiments

import (
	"strings"
	"testing"
	"time"

	"doubledecker/internal/metrics"
)

// tinyOpts shrinks every experiment far enough for CI.
func tinyOpts() Opts {
	return Opts{Seed: 42, Stretch: 0.04, Sample: 2 * time.Second}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "table1", "table2", "table3", "table4"}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if got := len(IDs()); got < len(want) {
		t.Fatalf("IDs() = %d entries, want ≥ %d", got, len(want))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

// TestEveryExperimentSmokes runs each artifact at tiny scale and checks
// the output structure is populated.
func TestEveryExperimentSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds each; skipped in -short")
	}
	o := tinyOpts()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			runner, _ := Lookup(id)
			res := runner(o)
			if res == nil {
				t.Fatal("nil result")
			}
			if res.ID != id {
				t.Fatalf("result id %q, want %q", res.ID, id)
			}
			if len(res.Tables) == 0 && len(res.SeriesOrder) == 0 {
				t.Fatal("experiment produced neither tables nor series")
			}
			out := res.Format()
			if !strings.Contains(out, id) {
				t.Fatal("Format output missing the experiment id")
			}
		})
	}
}

func TestResultFormatTable(t *testing.T) {
	r := newResult("x", "demo")
	r.Tables = append(r.Tables, Table{
		Title:   "tbl",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}},
	})
	r.note("hello %d", 7)
	out := r.Format()
	for _, want := range []string{"tbl", "long-column", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestFormatSeriesDownsamples(t *testing.T) {
	s := metrics.NewSeries("s")
	for i := 0; i < 1000; i++ {
		s.Record(time.Duration(i)*time.Second, float64(i))
	}
	out := formatSeries(s, 10)
	lines := strings.Count(out, "\n")
	if lines > 15 {
		t.Fatalf("downsampling produced %d lines", lines)
	}
	if !strings.Contains(out, "999") {
		t.Fatal("last sample not included")
	}
}

func TestSeriesMeanWindow(t *testing.T) {
	s := metrics.NewSeries("s")
	s.Record(time.Second, 10)
	s.Record(2*time.Second, 20)
	s.Record(3*time.Second, 90)
	if got := seriesMeanWindow(s, time.Second, 2*time.Second); got != 15 {
		t.Fatalf("mean = %v, want 15", got)
	}
	if got := seriesMeanWindow(s, time.Hour, 2*time.Hour); got != 0 {
		t.Fatalf("empty window mean = %v", got)
	}
}

func TestScaledClampsNonPositive(t *testing.T) {
	o := Opts{Stretch: 0}
	if got := o.scaled(time.Minute); got != time.Minute {
		t.Fatalf("scaled with zero stretch = %v", got)
	}
	o.Stretch = 0.5
	if got := o.scaled(time.Minute); got != 30*time.Second {
		t.Fatalf("scaled = %v", got)
	}
}

func TestDeterministicExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	o := tinyOpts()
	a := Fig5(o).Format()
	b := Fig5(o).Format()
	if a != b {
		t.Fatal("fig5 not deterministic across runs")
	}
}

func TestGateCheck(t *testing.T) {
	m := map[string]float64{"x": 2}
	for _, tc := range []struct {
		gate Gate
		pass bool
	}{
		{Gate{"x", ">=", 2}, true},
		{Gate{"x", ">=", 2.5}, false},
		{Gate{"x", ">", 2}, false},
		{Gate{"x", ">", 1}, true},
		{Gate{"x", "<=", 2}, true},
		{Gate{"x", "<=", 1}, false},
		{Gate{"x", "==", 2}, true},
		{Gate{"x", "==", 0}, false},
		{Gate{"missing", ">=", 0}, false},
		{Gate{"missing", "==", 0}, false},
		{Gate{"x", "!=", 0}, false},
		{Gate{"x", "", 2}, false},
	} {
		if _, pass := tc.gate.Check(m); pass != tc.pass {
			t.Errorf("%v on x=2: pass %v, want %v", tc.gate, pass, tc.pass)
		}
	}
}
