// Command ddbench runs the paper-reproduction experiments and prints the
// tables and series the paper reports.
//
// Usage:
//
//	ddbench -list
//	ddbench [-quick] [-seed N] [-stretch F] [-json DIR] <experiment-id>...
//	ddbench [-quick] [-seed N] [-stretch F] [-json DIR] all
//
// Every experiment declares its own metrics and gates (bounds on those
// metrics). ddbench checks every gate on every run and exits non-zero,
// naming each failed gate, if any fails. -json DIR additionally writes
// one BENCH_<id>.json per experiment into DIR with the fields id, seed,
// stretch, metrics and gates, each gate recording its value and whether
// it passed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"doubledecker/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	quick := fs.Bool("quick", false, "run shortened smoke versions")
	seed := fs.Int64("seed", 42, "simulation seed")
	stretch := fs.Float64("stretch", 0, "override duration stretch factor (0 = default)")
	jsonDir := fs.String("json", "", "also write BENCH_<id>.json for each experiment into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiment given; try -list")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	opts := experiments.DefaultOpts()
	if *quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = *seed
	if *stretch > 0 {
		opts.Stretch = *stretch
	}
	var errs []error
	for _, id := range ids {
		runner, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		start := time.Now()
		res := runner(opts)
		fmt.Print(res.Format())
		fmt.Printf("(wall time %.1fs)\n\n", time.Since(start).Seconds())
		errs = append(errs, report(res, opts, *jsonDir))
	}
	return errors.Join(errs...)
}

// gateResult is one evaluated gate as written to BENCH_<id>.json.
type gateResult struct {
	experiments.Gate
	Value float64 `json:"value"`
	Pass  bool    `json:"pass"`
}

// report checks every gate res declares, writes BENCH_<id>.json into dir
// unless dir is empty, and returns an error naming each failed gate.
func report(res *experiments.Result, opts experiments.Opts, dir string) error {
	var errs []error
	gates := make([]gateResult, 0, len(res.Gates))
	for _, g := range res.Gates {
		v, pass := g.Check(res.Metrics)
		gates = append(gates, gateResult{Gate: g, Value: v, Pass: pass})
		if !pass {
			if _, ok := res.Metrics[g.Metric]; !ok {
				errs = append(errs, fmt.Errorf("%s: gate %v failed: metric missing", res.ID, g))
			} else {
				errs = append(errs, fmt.Errorf("%s: gate %v failed: value %g", res.ID, g, v))
			}
		}
	}
	if dir != "" {
		data, err := json.MarshalIndent(struct {
			ID      string             `json:"id"`
			Seed    int64              `json:"seed"`
			Stretch float64            `json:"stretch"`
			Metrics map[string]float64 `json:"metrics"`
			Gates   []gateResult       `json:"gates"`
		}{res.ID, opts.Seed, opts.Stretch, res.Metrics, gates}, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+res.ID+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d of %d gates passed\n\n", path, len(gates)-len(errs), len(gates))
	}
	return errors.Join(errs...)
}
