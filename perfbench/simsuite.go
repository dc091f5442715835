package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/workload"
)

const (
	// simScale gives a suite pass of about a second on a 2-vCPU host:
	// long enough that the slowest program's run is not noise, short
	// enough for many passes per run.
	simScale = 0.05
	// simInputSeeds is the number of input seeds with committed reference
	// digests; the benchmark seed selects one of them.
	simInputSeeds = 32
	// setupReps is how often a run repeats its set-up; the median is
	// reported.
	setupReps = 9
)

// simConfigs are the two sim-suite configurations: one contended memory
// stream, and the decoupled LVC with fast forwarding and combining.
var simConfigs = []struct {
	name string
	cfg  config.Config
}{
	{"unified", config.Default().WithPorts(2, 0)},
	{"decoupled", config.Default().WithPorts(3, 2).WithOptimizations(2)},
}

// simInputSeed maps the benchmark seed onto a referenced input seed.
func simInputSeed(seed uint64) uint64 { return 1 + seed%simInputSeeds }

// simTotals accumulates one configuration's run time and work.
type simTotals struct {
	run       time.Duration
	committed uint64
	cycles    uint64
	allocs    uint64
}

func runSimSuite(e *env) (*outcome, error) {
	refs, err := loadRefs("sim-suite.json", simScale)
	if err != nil {
		return nil, err
	}
	in := simInputSeed(e.seed)
	ws := workload.All()
	o := newOutcome()

	// Set-up: generate and assemble the 12 programs for this input and
	// build one core per program and configuration.
	var progs []*asm.Program
	var progTimes, newTimes []float64
	for rep := 0; rep < setupReps; rep++ {
		sp := e.tracer.start(nil, "setup", "rep", rep)
		t0 := time.Now()
		progs = progs[:0]
		var newT time.Duration
		for _, w := range ws {
			s := e.tracer.start(sp, "workload.ProgramSeeded", "workload", w.Name)
			progs = append(progs, w.ProgramSeeded(simScale, in))
			s.end()
		}
		progT := time.Since(t0)
		for _, p := range progs {
			for _, sc := range simConfigs {
				s := e.tracer.start(sp, "core.New", "program", p.Name, "config", sc.name)
				t := time.Now()
				if _, err := core.New(p, sc.cfg); err != nil {
					return nil, fmt.Errorf("core.New %s %s: %w", p.Name, sc.name, err)
				}
				newT += time.Since(t)
				s.end()
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		progTimes = append(progTimes, progT.Seconds())
		newTimes = append(newTimes, newT.Seconds())
		sp.end()
	}

	totals := make([]simTotals, len(simConfigs))
	perProgram := make([]simTotals, len(ws)) // decoupled only
	passRun := make([][]float64, len(simConfigs))
	first := make([]*core.Result, len(ws)*len(simConfigs))

	wall, err := runRounds(e.budget, o, func(pass int) error {
		rs := e.tracer.start(nil, "round", "pass", pass)
		defer rs.end()
		passT := make([]time.Duration, len(simConfigs))
		for wi, p := range progs {
			for ci, sc := range simConfigs {
				label := fmt.Sprintf("%s/%s", ws[wi].Name, sc.name)
				opSpan := e.tracer.start(rs, "op", "program", ws[wi].Name, "config", sc.name)
				t0 := time.Now()
				ns := e.tracer.start(opSpan, "core.New")
				c, err := core.New(p, sc.cfg)
				ns.end()
				if err != nil {
					return fmt.Errorf("core.New %s: %w", label, err)
				}
				var a0 uint64
				if e.traced() {
					a0 = heapAllocObjects()
				}
				rsp := e.tracer.start(opSpan, "core.RunWith")
				t1 := time.Now()
				res, err := c.RunWith(context.Background(), core.RunOptions{})
				runT := time.Since(t1)
				rsp.end()
				d := time.Since(t0)
				opSpan.end()
				if err != nil {
					o.fail(d, false, "%s: %s", label, errKind(err))
					continue
				}
				o.check(d, label, resultDigest(res), refs.Digests[simKey(in, ws[wi].Name, sc.name)])
				t := &totals[ci]
				t.run += runT
				t.committed += res.Committed
				t.cycles += res.Cycles
				if e.traced() {
					t.allocs += heapAllocObjects() - a0
				}
				passT[ci] += runT
				if sc.name == "decoupled" {
					perProgram[wi].run += runT
					perProgram[wi].committed += res.Committed
				}
				if pass == 0 {
					first[wi*len(simConfigs)+ci] = res
				}
			}
		}
		for ci := range simConfigs {
			passRun[ci] = append(passRun[ci], passT[ci].Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.wall = wall
	e.measured()

	var committed uint64
	for _, t := range totals {
		committed += t.committed
	}
	o.addNamed("sim_minst_per_s", float64(committed)/wall.Seconds()/1e6, "Minst/s",
		fmt.Sprintf("committed simulated instructions per host second over %d passes", len(o.rounds)))
	o.addNamed("suite_pass_s", median(o.rounds), "s", "median suite pass")

	if !e.traced() {
		return o, nil
	}
	l := o.layers
	l["workload.program_s"] = median(progTimes)
	l["core.new_s"] = median(newTimes)
	asmT, err := assembleTime(ws, e)
	if err != nil {
		return nil, err
	}
	l["asm.assemble_s"] = asmT
	var allocs uint64
	for ci, sc := range simConfigs {
		t := totals[ci]
		allocs += t.allocs
		l["core.run_s."+sc.name] = median(passRun[ci])
		l["core.ns_per_inst."+sc.name] = frac(float64(t.run.Nanoseconds()), float64(t.committed))
		l["core.ns_per_cycle."+sc.name] = frac(float64(t.run.Nanoseconds()), float64(t.cycles))
	}
	l["core.allocs_per_kinst"] = frac(float64(allocs)*1000, float64(committed))
	for wi, w := range ws {
		l["core.ns_per_inst."+w.Name] = frac(float64(perProgram[wi].run.Nanoseconds()), float64(perProgram[wi].committed))
	}
	for ci, sc := range simConfigs {
		var acc, miss [3]float64 // L1, LVC, L2
		for wi := range ws {
			res := first[wi*len(simConfigs)+ci]
			if res == nil {
				continue
			}
			addModelCounters(l, sc.name, res)
			for k, st := range []cache.Stats{res.L1, res.LVC, res.L2} {
				acc[k] += float64(st.Accesses())
				miss[k] += float64(st.Misses())
			}
		}
		for k, name := range []string{"l1", "lvc", "l2"} {
			l["cache."+name+".miss_rate."+sc.name] = frac(miss[k], acc[k])
		}
	}
	mips, err := emuRate(progs, first, e)
	if err != nil {
		return nil, err
	}
	l["emu.minst_per_s"] = mips
	return o, nil
}

// addModelCounters sums one result's modelled counters into the suite
// totals of configuration cfg.
func addModelCounters(l layerValues, cfg string, res *core.Result) {
	l["core.cycles."+cfg] += float64(res.Cycles)
	l["core.committed."+cfg] += float64(res.Committed)
	l["core.rob_full_stalls."+cfg] += float64(res.ROBFullStalls)
	l["core.misroutes."+cfg] += float64(res.Misroutes)
	for _, s := range res.Streams {
		name := "lsq"
		if s.Local {
			name = "lvaq"
		}
		p := "memsys." + name + "."
		l[p+"port_stalls."+cfg] += float64(s.Stats.LoadPortStalls + s.Stats.StorePortStalls)
		l[p+"mshr_stalls."+cfg] += float64(s.Stats.LoadMSHRStalls + s.Stats.StoreMSHRStalls)
		l[p+"combined."+cfg] += float64(s.Stats.Combined)
		l[p+"fast_fwd."+cfg] += float64(s.Stats.FastFwdLoads)
	}
}

// assembleTime is the median time to assemble the 12 programs' sources
// (default input: the seed changes data values, not the program text's
// shape), generated outside the timing.
func assembleTime(ws []workload.Workload, e *env) (float64, error) {
	srcs := make([]string, len(ws))
	for i, w := range ws {
		srcs[i] = w.Source(simScale)
	}
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for i, w := range ws {
			s := e.tracer.start(nil, "asm.Assemble", "workload", w.Name)
			_, err := asm.Assemble(w.Name+".s", srcs[i])
			s.end()
			if err != nil {
				return 0, fmt.Errorf("assembling %s: %w", w.Name, err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// emuRate runs the functional emulator alone over the suite's programs
// until about half a second has passed, checks its outputs against the
// timing core's, and returns committed Minst per host second.
func emuRate(progs []*asm.Program, first []*core.Result, e *env) (float64, error) {
	var insts uint64
	var busy time.Duration
	for busy < 500*time.Millisecond {
		for i, p := range progs {
			s := e.tracer.start(nil, "emu.Machine.Run", "program", p.Name)
			m := emu.New(p)
			t0 := time.Now()
			_, err := m.Run(0)
			busy += time.Since(t0)
			s.end()
			if err != nil {
				return 0, fmt.Errorf("emulating %s: %w", p.Name, err)
			}
			if ref := first[i*len(simConfigs)]; ref != nil && fmt.Sprint(m.Output, m.FOutput) != fmt.Sprint(ref.Output, ref.FOutput) {
				return 0, fmt.Errorf("emulator output of %s differs from the timing core's", p.Name)
			}
			insts += m.InstCount
		}
	}
	return float64(insts) / busy.Seconds() / 1e6, nil
}

// heapAllocObjects is the cumulative count of heap objects allocated.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
