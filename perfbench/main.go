// Command perfbench drives the broker's public API through four
// closed-loop workloads and prints their end-to-end metrics (or, with
// -trace 1, their per-layer metrics) as one JSON object on the last
// line of standard output. See README.md for the workloads, the
// metrics and the load shape.
//
//	perfbench --workload pairs-8b --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one invocation measures.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spans is the file the traced run writes its kept spans to; empty
	// keeps them in memory only.
	spans string
}

// outcome is what a workload hands back: its metrics, its operation
// counts and the audit violations it found.
type outcome struct {
	metrics    map[string]metric
	attempted  int64
	failed     int64
	violations []string
	// notes are human-readable lines printed before the result.
	notes []string
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) violate(format string, args ...any) {
	// A broken run can violate the same rule millions of times; the
	// first few say everything.
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// ops counts verb calls attempted and failed.
type ops struct{ attempted, failed int64 }

func (c *ops) call(err error) error {
	c.attempted++
	if err != nil {
		c.failed++
	}
	return err
}

// workload is one entry of the benchmark: the function that runs it and how many
// goroutines it runs at once.
type workload struct {
	run        func(runConfig) (*outcome, error)
	goroutines int
}

var workloads = map[string]workload{
	"pairs-8b":   {runPairs, 1},
	"split-1k":   {runSplit, 2},
	"delay-heap": {runDelay, 1},
	"recover":    {runRecover, 1},
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 emits the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&cfg.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>-<seed>.tsv)")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", traceFlag))
	}
	cfg.trace = traceFlag == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/spans/%s-%d.tsv", cfg.workload, cfg.seed)
	}
	rep, notes, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run executes one workload and assembles its report: the end-to-end
// metrics untraced, the per-layer metrics traced.
func run(cfg runConfig) (*report, []string, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if !(cfg.seconds > 0) || math.IsInf(cfg.seconds, 0) {
		return nil, nil, fmt.Errorf("--seconds must be positive, not %v", cfg.seconds)
	}
	if n := runtime.NumCPU(); n < w.goroutines {
		return nil, nil, fmt.Errorf("%s runs %d goroutines; this machine has %d CPUs", cfg.workload, w.goroutines, n)
	}
	start := time.Now()
	out, err := w.run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := checkMetrics(out.metrics, want); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	notes := []string{fmt.Sprintf("workload %s seed %d seconds %g trace %v: %d ops attempted, %d failed, %.1f s wall",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, out.attempted, out.failed, time.Since(start).Seconds())}
	notes = append(notes, out.notes...)
	for _, v := range out.violations {
		notes = append(notes, "AUDIT FAILED: "+v)
	}
	if out.attempted < 1 {
		return nil, nil, errors.New("no operation was attempted")
	}
	return &report{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}, notes, nil
}

// checkMetrics verifies that a run emitted exactly the named metrics,
// each with its declared unit and a finite value.
func checkMetrics(got map[string]metric, want []metricDef) error {
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("emitted %d metrics %v, want %d", len(got), names, len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number (%v)", d.name, m.Value)
		}
	}
	return nil
}
