package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doubledecker/internal/experiments"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing experiment not rejected")
	}
}

// bench is the BENCH_<id>.json shape ddbench writes.
type bench struct {
	ID      string             `json:"id"`
	Seed    int64              `json:"seed"`
	Stretch float64            `json:"stretch"`
	Metrics map[string]float64 `json:"metrics"`
	Gates   []struct {
		Metric string  `json:"metric"`
		Op     string  `json:"op"`
		Bound  float64 `json:"bound"`
		Value  float64 `json:"value"`
		Pass   bool    `json:"pass"`
	} `json:"gates"`
}

// runJSON runs ddbench -quick -json on id and reads back its BENCH file.
func runJSON(t *testing.T, id string) bench {
	t.Helper()
	dir := t.TempDir()
	if err := run([]string{"-quick", "-json", dir, id}); err != nil {
		t.Fatalf("run -json %s: %v", id, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var out bench
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.ID != id || out.Seed != 42 || out.Stretch != experiments.QuickOpts().Stretch {
		t.Fatalf("header = %q seed %d stretch %v", out.ID, out.Seed, out.Stretch)
	}
	return out
}

func TestRunScalingJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paced scaling rows in real time")
	}
	out := runJSON(t, "scaling")
	rows := 0
	for k := range out.Metrics {
		if strings.HasSuffix(k, ".ops_per_sec") {
			rows++
		}
	}
	if rows != 8 {
		t.Fatalf("%d throughput rows, want 8", rows)
	}
	if s := out.Metrics["sharded_speedup_8v1"]; s <= 1 {
		t.Fatalf("sharded manager did not scale: 8v1 speedup %.2f", s)
	}
}

func TestRunTierJSONGatesPass(t *testing.T) {
	out := runJSON(t, "tier")
	if len(out.Gates) == 0 {
		t.Fatal("tier declares no gates")
	}
	for _, g := range out.Gates {
		if !g.Pass || g.Value != out.Metrics[g.Metric] {
			t.Errorf("gate %s %s %v: value %v pass %v", g.Metric, g.Op, g.Bound, g.Value, g.Pass)
		}
	}
}

func TestReportNamesFailedGate(t *testing.T) {
	res := &experiments.Result{
		ID:      "demo",
		Metrics: map[string]float64{"speedup": 1.2},
		Gates: []experiments.Gate{
			{Metric: "speedup", Op: ">=", Bound: 1},
			{Metric: "speedup", Op: ">=", Bound: 2},
			{Metric: "absent", Op: "==", Bound: 0},
		},
	}
	dir := t.TempDir()
	err := report(res, experiments.QuickOpts(), dir)
	if err == nil {
		t.Fatal("failing gates accepted")
	}
	for _, want := range []string{"speedup >= 2", "absent == 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name gate %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "speedup >= 1 ") {
		t.Errorf("error %q names a passing gate", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_demo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"pass": false`) {
		t.Fatalf("BENCH_demo.json records no failed gate:\n%s", data)
	}
}

func TestRunQuickExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real scenario")
	}
	if err := run([]string{"-quick", "-stretch", "0.04", "fig5"}); err != nil {
		t.Fatalf("run fig5: %v", err)
	}
}
