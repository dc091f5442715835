package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, want: 50, ok: false},
		{n: 19, want: 50, ok: false}, // the median has only 9 samples beyond it
		{n: 20, want: 50, ok: true},
		{n: 23, want: 50, ok: true}, // one figures regeneration
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true}, // p95 would leave 9 beyond
		{n: 200, want: 95, ok: true},
		{n: 531, want: 98, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 100000, want: 99.99, ok: true},
	} {
		q := tailPercentile(tc.n)
		if q != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, q, tc.want)
		}
		if tc.ok != (tc.n-nearestRank(q, tc.n) >= 10) {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, q, tc.n-nearestRank(q, tc.n))
		}
	}

	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 .. 1, unsorted on purpose
	}
	tl := tailOf(xs)
	if tl.value != 90 || tl.q != 90 || tl.n != 100 {
		t.Errorf("tailOf(1..100) = %+v, want p90 = 90 of 100", tl)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// pb is a minimal protobuf encoder for canned profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return p.bytes(num, inner)
}

// cannedProfile builds a gzipped pprof profile whose samples have the
// given stacks (leaf first, each a list of inlined-together frame groups)
// and weights.
func cannedProfile(t *testing.T, stacks [][][]string, weights []int64) []byte {
	t.Helper()
	prof := &pb{}
	strs := []string{""}
	fnID := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := fnID[name]; ok {
			return id
		}
		strs = append(strs, name)
		id := uint64(len(fnID) + 1)
		fnID[name] = id
		prof.bytes(5, (&pb{}).varint(1, id).varint(2, uint64(len(strs)-1)).b)
		return id
	}
	locID := uint64(0)
	for i, stack := range stacks {
		var locs []uint64
		for _, group := range stack {
			locID++
			loc := (&pb{}).varint(1, locID)
			for _, name := range group {
				loc.bytes(4, (&pb{}).varint(1, fn(name)).varint(2, 7).b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, locID)
		}
		s := (&pb{}).packed(1, locs...)
		if i%2 == 0 { // exercise both packed and unpacked values
			s.packed(2, 1, uint64(weights[i]))
		} else {
			s.varint(2, 1).varint(2, uint64(weights[i]))
		}
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerMappingOnCannedProfile(t *testing.T) {
	const (
		cpfx    = "repro/internal/core.(*Core)."
		memsys  = "repro/internal/memsys.(*Stream)."
		runLoop = cpfx + "runEvent"
	)
	stacks := [][][]string{
		// emu.Step inlined into nextEffect, under dispatch: the leaf wins.
		{{"repro/internal/emu.(*Machine).Step", cpfx + "nextEffect"}, {cpfx + "dispatchStage"}, {cpfx + "cycle"}, {runLoop}},
		// A core helper under dispatch belongs to dispatch.
		{{cpfx + "nextEffect"}, {cpfx + "dispatchStage"}, {runLoop}},
		// A core callback run by memsys under the memory stage is memsys.
		{{cpfx + "processLoad"}, {memsys + "Process"}, {cpfx + "processStream"}, {cpfx + "memoryStage"}, {runLoop}},
		// Runtime helpers pass through to their caller.
		{{"runtime.memmove"}, {cpfx + "issueStage"}, {runLoop}},
		{{"runtime.mallocgc"}, {cpfx + "allocUop"}, {cpfx + "dispatchStage"}},
		{{"repro/internal/cache.(*Cache).Access"}, {memsys + "Grant"}, {cpfx + "memoryStage"}},
		{{"repro/internal/sched.(*Queue).pop"}, {runLoop}},
		{{cpfx + "commitStage"}, {runLoop}},
		// Core code outside any stage is core.other.
		{{cpfx + "skipTo"}, {runLoop}},
		{{"encoding/json.Marshal"}, {"repro/internal/serve.writeJSON"}},
		{{"net/http.(*conn).serve"}},
		// Unmapped frames: a renamed stage would land here.
		{{"main.runSimSuite"}, {"main.main"}},
		{{"runtime.futex"}},
	}
	weights := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130}
	samples, err := decodeProfile(bytes.NewReader(cannedProfile(t, stacks, weights)))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[0].frames; len(got) != 5 || got[0] != "repro/internal/emu.(*Machine).Step" || got[1] != cpfx+"nextEffect" {
		t.Fatalf("inlined frames decoded as %q", got)
	}

	var total float64
	for _, w := range weights {
		total += float64(w)
	}
	want := map[string]float64{
		"emu":           10,
		"core.dispatch": 20,
		"memsys":        30,
		"core.issue":    40,
		"gc":            50,
		"cache":         60,
		"sched":         70,
		"core.commit":   80,
		"core.other":    90,
		"json":          100,
		"net_http":      110,
		"other":         120 + 130,
	}
	shares := cpuShares(samples, layerTable)
	if len(shares) != len(cpuLayers) {
		t.Errorf("got %d layers, want all %d", len(shares), len(cpuLayers))
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
		if w := want[l] / total; math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("cpu.%s = %.4f, want %.4f", l, shares[l], w)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

func TestRealProfileDecodes(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	prog := workload.All()[0].Program(0.02)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		c, err := core.New(prog, config.Default())
		if err == nil {
			_, err = c.Run()
		}
		if err != nil {
			prof.stop()
			t.Fatal(err)
		}
	}
	samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Skipf("only %d samples", len(samples))
	}
	// Every sample of the simulation loop that the profiler could unwind
	// into this module passes through the core. (Under the race detector
	// many samples end in its C runtime and carry no Go frames.)
	inModule, inCore := 0, 0
	for _, s := range samples {
		module, core := false, false
		for _, f := range s.frames {
			module = module || strings.HasPrefix(f, "repro/")
			core = core || strings.HasPrefix(f, "repro/internal/core.")
		}
		if module {
			inModule++
		}
		if core {
			inCore++
		}
	}
	if inModule == 0 || inCore < inModule*3/4 {
		t.Errorf("%d of %d samples reach this module, %d of them the core", inModule, len(samples), inCore)
	}
}

func TestPerturbedSimResultFails(t *testing.T) {
	w, _ := workload.ByName("vortex")
	c, err := core.New(w.ProgramSeeded(0.02, 1), simConfigs[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := resultDigest(res)
	o := newOutcome()
	o.check(time.Millisecond, "vortex", resultDigest(res), want)
	res.Cycles++
	o.check(time.Millisecond, "vortex", resultDigest(res), want)
	res.Cycles--
	res.Output = append(res.Output, 1)
	o.check(time.Millisecond, "vortex", resultDigest(res), want)
	if attempted, failed, wrong := o.counts(); attempted != 3 || failed != 2 || wrong != 2 {
		t.Errorf("counts = %d attempted, %d failed, %d wrong; want 3, 2, 2", attempted, failed, wrong)
	}
}

func TestPerturbedSweepPointFails(t *testing.T) {
	spec := cellSpec("perturbed", []sweepCell{{"vortex", "2+2", "hint"}})
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	fig := &sweep.Figure{Schema: sweep.FigureSchema, Name: spec.Name, SpecID: spec.ID(), Scale: sweepScale}
	for _, p := range points {
		fp, err := referencePoint(p)
		if err != nil {
			t.Fatal(err)
		}
		fig.Points = append(fig.Points, *fp)
	}
	rec := &sweepRecord{spec: spec, points: points, fig: fig, census: &sweep.Census{}, latency: map[string]time.Duration{}}

	o := newOutcome()
	if err := verifySweeps(o, []*sweepRecord{rec}); err != nil {
		t.Fatal(err)
	}
	if a, f, _ := o.counts(); a != len(points) || f != 0 {
		t.Fatalf("unperturbed sweep: %d attempted, %d failed; want %d, 0", a, f, len(points))
	}

	fig.Points[1].Cycles++
	o = newOutcome()
	if err := verifySweeps(o, []*sweepRecord{rec}); err != nil {
		t.Fatal(err)
	}
	if a, f, w := o.counts(); a != len(points) || f != 1 || w != 1 {
		t.Errorf("perturbed sweep: %d attempted, %d failed, %d wrong; want %d, 1, 1", a, f, w, len(points))
	}
}

func TestPerturbedFigureFails(t *testing.T) {
	refs, err := loadRefs("figures.json", figScale)
	if err != nil {
		t.Fatal(err)
	}
	x, err := experiments.ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := x.Run(experiments.NewRunner(figScale))
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	o.check(time.Millisecond, x.ID, digestBytes([]byte(out)), refs.Digests[x.ID])
	o.check(time.Millisecond, x.ID, digestBytes([]byte(out+" ")), refs.Digests[x.ID])
	if a, f, w := o.counts(); a != 2 || f != 1 || w != 1 {
		t.Errorf("counts = %d attempted, %d failed, %d wrong; want 2, 1, 1", a, f, w)
	}
}

// resultOf parses the last line of a run's standard output.
func resultOf(t *testing.T, stdout string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout)
	}
	return r
}

func TestWorkloadsCompleteAtTinySize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, w := range []string{"sim-suite", "sweep-serve"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "5", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				r := resultOf(t, stdout.String())
				if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
					t.Errorf("result %+v", r)
				}
				defs := endToEndDefs
				if trace == "1" {
					defs = perLayerDefs
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or with unit %q", d.Name, m.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestFiguresRecordsTypedFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	var exps []experiments.Experiment
	for _, id := range []string{"table1", "fig3", "alt-small-l1"} {
		x, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, x)
	}
	o, err := runFigures(&env{workload: "figures", seed: 1, budget: time.Millisecond, scratch: t.TempDir(), figures: exps})
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, wrong := o.counts()
	if attempted != len(exps) || wrong != 0 {
		t.Errorf("%d attempted, %d wrong; want %d, 0", attempted, wrong, len(exps))
	}
	// alt-small-l1 aborts on the event engine (a known defect); it must be
	// counted as a typed failure, never skipped, and pass once fixed.
	for _, f := range o.failures {
		if !strings.HasPrefix(f, "alt-small-l1: simerr ") {
			t.Errorf("untyped or unexpected failure %q", f)
		}
	}
	if failed > 1 {
		t.Errorf("%d failures, want at most 1", failed)
	}
}

func TestSweepPlanRepeatsPoints(t *testing.T) {
	plan := newSweepPlan(7)
	cells := map[sweepCell]bool{}
	for _, c := range plan.fresh {
		cells[c] = true
	}
	if want := len(workload.Names()) * len(sweepPorts) * len(sweepSteering); len(plan.fresh) != want || len(cells) != want {
		t.Fatalf("plan holds %d cells, %d distinct; want every one of %d once", len(plan.fresh), len(cells), want)
	}

	sweeps := planSweeps(7)
	if len(sweeps) < 100 {
		t.Fatalf("planned %d sweeps, want at least 100", len(sweeps))
	}
	seen := map[string]bool{}
	var jobs, repeats int
	for i, s := range sweeps {
		if i < 3 {
			// The planned points are the ones the coordinator expands.
			want, err := s.spec.Points()
			if err != nil {
				t.Fatal(err)
			}
			sortPoints := func(ps []sweep.Point) {
				sort.Slice(ps, func(a, b int) bool { return ps[a].Key < ps[b].Key })
			}
			got := append([]sweep.Point(nil), s.points...)
			sortPoints(got)
			sortPoints(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sweep %d: planned points differ from the spec's", i)
			}
		}
		if len(s.points) != (repeatCells+newCells)*len(sweepModes) {
			t.Fatalf("sweep %d has %d points", i, len(s.points))
		}
		for _, p := range s.points {
			jobs++
			if seen[p.Key] {
				repeats++
			}
			seen[p.Key] = true
		}
	}
	if share := float64(repeats) / float64(jobs); share < 0.8 || share > 0.9 {
		t.Errorf("repeat share %.2f, want about 7/8", share)
	}
	again := planSweeps(7)
	for i := range sweeps {
		if sweeps[i].spec.ID() != again[i].spec.ID() {
			t.Fatalf("sweep %d differs between two plans of one seed", i)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Seconds   int      `json:"run_seconds"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if kind == "end_to_end" && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s: bound of %s differs from %g", kind, g.Name, w.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, perLayerDefs)
	if t.Failed() {
		var lines []string
		for _, d := range perLayerDefs {
			lines = append(lines, `    {"name": "`+d.Name+`", "unit": "`+d.Unit+`", "better": "`+d.Better+`"}`)
		}
		t.Logf("per_layer from the definitions:\n%s", strings.Join(lines, ",\n"))
	}
}
