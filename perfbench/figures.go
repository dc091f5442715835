package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/simerr"
	"repro/internal/workload"
)

// figScale is the smallest scale the workload generator honours (smaller
// scales are clamped), so a full regeneration is as short as it gets:
// about 15-25 s on a 2-vCPU host.
const figScale = 0.02

func figureIDs() []string {
	var ids []string
	for _, e := range experiments.AllExperiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// errKind names an error by its simerr kind when it has one.
func errKind(err error) string {
	var se *simerr.SimError
	if errors.As(err, &se) {
		return "simerr " + se.Kind.String() + ": " + firstLine(err.Error())
	}
	return firstLine(err.Error())
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}

// runFigures regenerates every experiment, in order, through a fresh
// Runner per round. The experiments use the paper's fixed inputs, so the
// seed does not apply.
func runFigures(e *env) (*outcome, error) {
	refs, err := loadRefs("figures.json", figScale)
	if err != nil {
		return nil, err
	}
	exps := e.figures
	if exps == nil {
		exps = experiments.AllExperiments()
	}
	o := newOutcome()

	// Set-up: generate the 12 programs the experiments simulate and check
	// them against the images the references were computed from.
	for rep := 0; rep < setupReps; rep++ {
		sp := e.tracer.start(nil, "setup", "rep", rep)
		t0 := time.Now()
		for _, w := range workload.All() {
			if got, want := programDigest(w.Program(figScale)), refs.Digests["program/"+w.Name]; got != want {
				return nil, fmt.Errorf("program %s at scale %g is not the one the references were computed from", w.Name, figScale)
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		sp.end()
	}

	expTimes := make(map[string][]float64)
	var runnerResults []float64
	wall, err := runRounds(e.budget, o, func(round int) error {
		rs := e.tracer.start(nil, "round", "regeneration", round)
		defer rs.end()
		r := experiments.NewRunner(figScale)
		for _, x := range exps {
			s := e.tracer.start(rs, "experiments.Experiment.Run", "experiment", x.ID)
			t0 := time.Now()
			out, err := x.Run(r)
			d := time.Since(t0)
			s.end()
			expTimes[x.ID] = append(expTimes[x.ID], d.Seconds())
			if err != nil {
				o.fail(d, false, "%s: %s", x.ID, errKind(err))
				continue
			}
			o.check(d, x.ID, digestBytes([]byte(out)), refs.Digests[x.ID])
		}
		runnerResults = append(runnerResults, float64(r.CachedResults()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.wall = wall
	e.measured()
	// The latency a user waits for is the regeneration: single experiments
	// range from microseconds to seconds and share one Runner, so their
	// median says little (their times are per-layer metrics).
	for _, r := range o.rounds {
		o.latencyMS = append(o.latencyMS, r*1000)
	}
	o.addNamed("figures_s", median(o.rounds), "s",
		fmt.Sprintf("median full regeneration of %d experiments at scale %g over %d rounds", len(exps), figScale, len(o.rounds)))

	if !e.traced() {
		return o, nil
	}
	for _, x := range exps {
		o.layers["experiments."+x.ID+"_s"] = median(expTimes[x.ID])
	}
	o.layers["experiments.runner_results"] = median(runnerResults)
	assign, deps := analysisTimes(e)
	o.layers["analysis.assign_s"] = assign
	o.layers["analysis.dependences_s"] = deps
	return o, nil
}

// analysisTimes returns the median time to run analysis.Assign and
// analysis.Dependences over the 12 stripped programs.
func analysisTimes(e *env) (assign, deps float64) {
	ws := workload.All()
	var at, dt []float64
	for rep := 0; rep < 3; rep++ {
		var a, d time.Duration
		for _, w := range ws {
			p := w.ProgramStripped(figScale)
			s := e.tracer.start(nil, "analysis.Assign", "workload", w.Name)
			t0 := time.Now()
			analysis.Assign(p)
			a += time.Since(t0)
			s.end()
			s = e.tracer.start(nil, "analysis.Dependences", "workload", w.Name)
			t0 = time.Now()
			analysis.Dependences(p, analysis.DefaultLineBytes)
			d += time.Since(t0)
			s.end()
		}
		at = append(at, a.Seconds())
		dt = append(dt, d.Seconds())
	}
	return median(at), median(dt)
}
