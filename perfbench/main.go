// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed wall-clock budget in a fresh process, checks every
// output against a committed or serial reference, and prints a report
// followed by one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics (measured with no
// instrumentation beyond timestamps); with -trace 1 they are the per-layer
// metrics, from a run that records spans and a CPU profile and also
// measures itself untraced to report the tracing overhead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sim-suite --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and what each
// per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// workloadFunc runs one workload under env and returns what it measured.
type workloadFunc func(env *env) (*outcome, error)

// workloads maps each workload name to the function that runs it, in
// report order.
var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"sim-suite", runSimSuite},
	{"figures", runFigures},
	{"sweep-serve", runSweepServe},
}

func lookupWorkload(name string) (workloadFunc, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.run, true
		}
	}
	return nil, false
}

// env is what a workload function receives: its seed, its time budget, the
// tracer (nil in untraced runs) and a private scratch directory.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration
	tracer   *tracer
	scratch  string
	// figures restricts the figures workload to these experiments (nil:
	// every experiment); the benchmark's tests use it to stay small.
	figures []experiments.Experiment
	// onMeasured, if set, is called once when the measured phase ends, so
	// that the CPU profile leaves out verification and layer
	// microbenchmarks.
	onMeasured func()
}

// traced reports whether spans and per-layer measurements are wanted.
func (e *env) traced() bool { return e.tracer != nil }

// measured marks the end of the measured phase.
func (e *env) measured() {
	if e.onMeasured != nil {
		e.onMeasured()
		e.onMeasured = nil
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-suite, figures or sweep-serve")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measured wall-clock budget per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch files and span output")
	genRefs := fs.String("gen-refs", "", "regenerate the reference digests into this directory with the tick engine, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *genRefs != "" {
		if err := generateRefs(*genRefs, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	prov, err := provenance(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		scratch:  scratch,
	}
	var oc *outcome
	if *trace == 1 {
		oc, err = tracedRun(e, drive)
	} else {
		oc, err = drive(e)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	oc.peakRSSMB = peakRSSMB()

	var spanFile string
	if e.tracer != nil {
		spanFile = filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := e.tracer.writeFile(spanFile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := report(stdout, e, prov, oc, *trace == 1, spanFile); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// tracedRun measures the workload twice in one process, first untraced and
// then with spans and a CPU profile, each on half the budget, and derives
// trace_overhead_frac from the two primary figures.
func tracedRun(e *env, drive workloadFunc) (*outcome, error) {
	half := *e
	half.budget = e.budget / 2
	plain, err := drive(&half)
	if err != nil {
		return nil, fmt.Errorf("untraced half: %w", err)
	}
	e.tracer = newTracer()
	half.tracer = e.tracer
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	var samples []stackSample
	var perr error
	half.onMeasured = func() { samples, perr = prof.stop() }
	traced, err := drive(&half)
	half.measured() // a workload that failed early
	if err != nil {
		return nil, fmt.Errorf("traced half: %w", err)
	}
	if perr != nil {
		return nil, perr
	}
	traced.layers["trace_overhead_frac"] = traced.roundMedian()/plain.roundMedian() - 1
	for layer, share := range cpuShares(samples, layerTable) {
		traced.layers["cpu."+layer] = share
	}
	traced.mergeCounts(plain)
	return traced, nil
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable report, the stamped full report as one
// JSON line, and finally the result line.
func report(w io.Writer, e *env, prov *prov, oc *outcome, traced bool, spanFile string) error {
	attempted, failed, wrong := oc.counts()
	if attempted == 0 {
		return errors.New("no operation was attempted")
	}
	fmt.Fprintf(w, "perfbench %s seed=%d commit=%s tree=%s host=%q nproc=%d gomaxprocs=%d go=%s\n",
		e.workload, e.seed, prov.Commit, prov.Tree, prov.CPUModel, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d (wrong outputs %d) error_rate=%.6f\n",
		attempted, failed, wrong, float64(failed)/float64(attempted))
	for i, f := range oc.failures {
		if i == 20 {
			fmt.Fprintf(w, "  ... and %d more failures\n", len(oc.failures)-i)
			break
		}
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
	oc.layers["error_rate"] = float64(failed) / float64(attempted)

	e2e := oc.endToEnd()
	fmt.Fprintln(w, "end-to-end:")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-22s %14.6f %-8s\n", d.Name, e2e[d.Name], d.Unit)
	}
	for _, m := range oc.named {
		fmt.Fprintf(w, "  %-22s %14.6f %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}

	var metrics map[string]metricValue
	if traced {
		metrics = make(map[string]metricValue, len(perLayerDefs))
		fmt.Fprintln(w, "per-layer:")
		for _, d := range perLayerDefs {
			v := oc.layers[d.Name]
			metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			if v != 0 {
				fmt.Fprintf(w, "  %-40s %16.6f %s\n", d.Name, v, d.Unit)
			}
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", e.tracer.len(), spanFile)
	} else {
		metrics = make(map[string]metricValue, len(endToEndDefs))
		for _, d := range endToEndDefs {
			metrics[d.Name] = metricValue{Value: e2e[d.Name], Unit: d.Unit}
		}
	}

	full := map[string]any{
		"schema":     "perfbench/v1",
		"workload":   e.workload,
		"provenance": prov,
		"attempted":  attempted,
		"failed":     failed,
		"failures":   oc.failures,
		"error_rate": float64(failed) / float64(attempted),
		"named":      oc.named,
		"metrics":    metrics,
	}
	if err := writeJSONLine(w, "report ", full); err != nil {
		return err
	}
	return writeJSONLine(w, "", resultLine{
		Correct:   wrong == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
}

func writeJSONLine(w io.Writer, prefix string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s%s\n", prefix, data)
	return err
}

// namedMetric is one of the workload-specific end-to-end names
// (sim_minst_per_s, figures_s, sweep_s, ...) printed in the report beside
// the generic metrics.
type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// layerValues holds per-layer metric values by name.
type layerValues map[string]float64
