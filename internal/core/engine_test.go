package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/simerr"
	"repro/internal/workload"
)

// runEngine builds a fresh core for (workload, cfg) and runs it on the
// given engine. Each engine gets its own core: the comparison is between
// two complete simulations of the same machine.
func runEngine(t *testing.T, name string, scale float64, cfg config.Config, e Engine) (*Result, error) {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("workload %s: %v", name, err)
	}
	c, err := New(w.Program(scale), cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return c.RunWith(context.Background(), RunOptions{Engine: e})
}

// TestEngineIdentityAllWorkloads is the differential harness for the
// event-driven engine: on every workload, for a spread of machine
// configurations (unified, decoupled, decoupled with both §2.2.2
// optimizations), the event engine must produce a Result that is
// bit-identical to the tick engine's — cycles, every stall counter, every
// occupancy integral, every cache statistic.
func TestEngineIdentityAllWorkloads(t *testing.T) {
	configs := []struct {
		name string
		cfg  config.Config
	}{
		{"unified(4+0)", config.Default().WithPorts(4, 0)},
		{"decoupled(3+2)", config.Default().WithPorts(3, 2)},
		{"optimized(3+2)", config.Default().WithPorts(3, 2).WithOptimizations(2)},
	}
	scale := 0.02
	for _, w := range workload.All() {
		for _, tc := range configs {
			t.Run(w.Name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				tick, terr := runEngine(t, w.Name, scale, tc.cfg, EngineTick)
				event, eerr := runEngine(t, w.Name, scale, tc.cfg, EngineEvent)
				if terr != nil || eerr != nil {
					t.Fatalf("run errors: tick=%v event=%v", terr, eerr)
				}
				assertResultsIdentical(t, tick, event)
			})
		}
	}
}

// TestEngineIdentitySteeringVariants covers the recovery-heavy paths
// (misroute squash/replay, dual-steering kill, speculative steering) where
// wake bookkeeping is hardest to get right.
func TestEngineIdentitySteeringVariants(t *testing.T) {
	for _, steering := range []config.SteeringPolicy{
		config.SteerSP, config.SteerDual, config.SteerStatic, config.SteerSpec,
	} {
		cfg := config.Default().WithPorts(3, 2).WithOptimizations(2)
		cfg.Steering = steering
		t.Run(steering.String(), func(t *testing.T) {
			t.Parallel()
			for _, name := range []string{"li", "go", "swim"} {
				tick, terr := runEngine(t, name, 0.02, cfg, EngineTick)
				event, eerr := runEngine(t, name, 0.02, cfg, EngineEvent)
				if terr != nil || eerr != nil {
					t.Fatalf("%s: run errors: tick=%v event=%v", name, terr, eerr)
				}
				assertResultsIdentical(t, tick, event)
			}
		})
	}
}

// TestEngineIdentityExamples runs every shipped examples/asm program
// (including the deliberately-broken badhint.s — a bad hint still
// simulates, it just misroutes) under both engines on the paper's
// optimized machine and on a unified one.
func TestEngineIdentityExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "asm")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	configs := []config.Config{
		config.Default().WithPorts(4, 0),
		config.Default().WithPorts(3, 2).WithOptimizations(2),
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".s" {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		t.Run(ent.Name(), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Assemble(ent.Name(), string(src))
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range configs {
				var results [2]*Result
				for i, e := range []Engine{EngineTick, EngineEvent} {
					c, err := New(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if results[i], err = c.RunWith(context.Background(), RunOptions{Engine: e}); err != nil {
						t.Fatalf("%s engine %v: %v", cfg.Name(), e, err)
					}
				}
				assertResultsIdentical(t, results[0], results[1])
			}
		})
	}
}

// TestEngineIdentitySmallDirectMappedL1 is the regression test for a missed
// wake: under (2+0) with a 2 KiB direct-mapped L1, a load rejected while its
// set's only way was still filling computed a fill wake of now+1, which the
// engine dropped; the only other fills in flight were write-allocates from
// store commits, which register no wake, so the event engine skipped past
// the fill and hit the watchdog where the tick engine finishes.
func TestEngineIdentitySmallDirectMappedL1(t *testing.T) {
	cfg := config.Default().WithPorts(2, 0)
	cfg.L1 = config.CacheParams{SizeBytes: 2 * 1024, LineBytes: 32, Assoc: 1, HitLatency: 1}
	tick, terr := runEngine(t, "tomcatv", 0.02, cfg, EngineTick)
	event, eerr := runEngine(t, "tomcatv", 0.02, cfg, EngineEvent)
	if terr != nil || eerr != nil {
		t.Fatalf("run errors: tick=%v event=%v", terr, eerr)
	}
	if tick.Cycles != 26336 {
		t.Errorf("tick engine: %d cycles, want 26336", tick.Cycles)
	}
	assertResultsIdentical(t, tick, event)
}

// TestEngineIdentitySmallL1Sweep runs every workload under both engines on
// small, conflict-heavy L1 geometries (1-4 KiB, direct-mapped or 2-way, hit
// latency 1-2), where MSHR-rejected accesses are common: four draws per
// workload on the unified (2+0) machine, whose single stream takes every
// conflict miss, and one on the optimized (3+2). The draws come from a
// fixed seed, so a failure reproduces.
func TestEngineIdentitySmallL1Sweep(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1024, 2048, 4096}
	for _, w := range workload.All() {
		for i := 0; i < 5; i++ {
			cfg := config.Default().WithPorts(2, 0)
			if i == 4 {
				cfg = config.Default().WithPorts(3, 2).WithOptimizations(2)
			}
			cfg.L1 = config.CacheParams{
				SizeBytes:  sizes[rng.Intn(len(sizes))],
				LineBytes:  32,
				Assoc:      1 + rng.Intn(2),
				HitLatency: uint64(1 + rng.Intn(2)),
			}
			name := fmt.Sprintf("%s/%s-%dB-%dway-hl%d", w.Name, cfg.Name(),
				cfg.L1.SizeBytes, cfg.L1.Assoc, cfg.L1.HitLatency)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				tick, terr := runEngine(t, w.Name, 0.02, cfg, EngineTick)
				event, eerr := runEngine(t, w.Name, 0.02, cfg, EngineEvent)
				if terr != nil || eerr != nil {
					t.Fatalf("run errors: tick=%v event=%v", terr, eerr)
				}
				assertResultsIdentical(t, tick, event)
			})
		}
	}
}

func assertResultsIdentical(t *testing.T, tick, event *Result) {
	t.Helper()
	if reflect.DeepEqual(tick, event) {
		return
	}
	// Pinpoint the divergence for the failure message.
	if tick.Cycles != event.Cycles {
		t.Errorf("cycles: tick=%d event=%d", tick.Cycles, event.Cycles)
	}
	if tick.Stats != event.Stats {
		t.Errorf("stats diverge:\n tick:  %+v\n event: %+v", tick.Stats, event.Stats)
	}
	for i := range tick.Streams {
		if i < len(event.Streams) && !reflect.DeepEqual(tick.Streams[i], event.Streams[i]) {
			t.Errorf("stream %d diverges:\n tick:  %+v\n event: %+v",
				i, tick.Streams[i], event.Streams[i])
		}
	}
	t.Fatalf("results diverge (L2/mem/TLB/output section):\n tick:  %+v %+v %d/%d\n event: %+v %+v %d/%d",
		tick.L2, tick.MemReads, tick.TLBHits, tick.TLBMisses,
		event.L2, event.MemReads, event.TLBHits, event.TLBMisses)
}

// TestEngineIdentityUnderMaxCycles: an abort boundary must fire on the
// same cycle with the same snapshot under both engines — the event engine
// clamps its jumps to land one cycle before the cap so the capped cycle
// executes for real.
func TestEngineIdentityUnderMaxCycles(t *testing.T) {
	cfg := config.Default().WithPorts(3, 2)
	for _, cap := range []uint64{100, 1000, 5000} {
		var snaps [2]simerr.Snapshot
		for i, e := range []Engine{EngineTick, EngineEvent} {
			w, _ := workload.ByName("swim")
			c, err := New(w.Program(0.05), cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, rerr := c.RunWith(context.Background(), RunOptions{MaxCycles: cap, Engine: e})
			se, ok := rerr.(*simerr.SimError)
			if !ok || se.Kind != simerr.KindMaxCycles {
				t.Fatalf("cap %d engine %v: err = %v, want KindMaxCycles", cap, e, rerr)
			}
			snaps[i] = se.Snapshot
		}
		if !reflect.DeepEqual(snaps[0], snaps[1]) {
			t.Errorf("cap %d: abort snapshots diverge:\n tick:  %+v\n event: %+v",
				cap, snaps[0], snaps[1])
		}
	}
}

// TestWatchdogFiresAcrossSkippedGap: a livelocked pipeline (watchdog
// window far below any real wake) must abort on exactly the same cycle
// under both engines even when the event engine's jump would overshoot the
// watchdog boundary — the clamp lands it one cycle short.
func TestWatchdogFiresAcrossSkippedGap(t *testing.T) {
	cfg := config.Default().WithPorts(3, 2)
	// A tiny watchdog window turns ordinary memory-latency stalls into
	// "livelock": with MemLatency 50 and MSHR pileups, a 40-cycle window
	// trips on real workloads, and the event engine skips straight at it.
	const window = 40
	var cycles [2]uint64
	for i, e := range []Engine{EngineTick, EngineEvent} {
		w, _ := workload.ByName("swim")
		c, err := New(w.Program(0.05), cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := c.RunWith(context.Background(), RunOptions{WatchdogCycles: window, Engine: e})
		se, ok := rerr.(*simerr.SimError)
		if !ok || se.Kind != simerr.KindWatchdog {
			t.Fatalf("engine %v: err = %v, want KindWatchdog", e, rerr)
		}
		cycles[i] = se.Snapshot.Cycle
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("watchdog fired on different cycles: tick=%d event=%d", cycles[0], cycles[1])
	}
}

// TestEngineParse pins the flag grammar.
func TestEngineParse(t *testing.T) {
	if e, err := ParseEngine("tick"); err != nil || e != EngineTick {
		t.Fatalf("ParseEngine(tick) = %v, %v", e, err)
	}
	if e, err := ParseEngine("event"); err != nil || e != EngineEvent {
		t.Fatalf("ParseEngine(event) = %v, %v", e, err)
	}
	if e, err := ParseEngine(""); err != nil || e != EngineEvent {
		t.Fatalf("ParseEngine(\"\") = %v, %v", e, err)
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Fatal("ParseEngine(warp) did not fail")
	}
	if EngineEvent.String() != "event" || EngineTick.String() != "tick" {
		t.Fatal("Engine.String round-trip broken")
	}
}

// knobReader decodes machine-configuration knobs from a byte string, one
// byte per draw; an exhausted string reads as zeros. The seeded
// config-space test feeds it random bytes and the fuzz target feeds it the
// fuzzer's input, so both explore the same space.
type knobReader []byte

func (k *knobReader) pick(n int) int {
	if len(*k) == 0 {
		return 0
	}
	b := (*k)[0]
	*k = (*k)[1:]
	return int(b) % n
}

func (k *knobReader) flag() bool { return k.pick(2) == 1 }

// cacheKnobs draws a cache geometry with 32-byte lines whose set count is
// a power of two, as the cache model requires.
func (k *knobReader) cacheKnobs(sizes, assocs []int, maxHit int) config.CacheParams {
	return config.CacheParams{
		SizeBytes:  sizes[k.pick(len(sizes))],
		LineBytes:  32,
		Assoc:      assocs[k.pick(len(assocs))],
		HitLatency: uint64(1 + k.pick(maxHit)),
	}
}

// configFromKnobs builds a Validate-legal machine in which every knob is
// drawn: the N+M port mix and both port models, the L1/L2/LVC geometries
// and hit latencies, memory latency, ROB/LSQ/LVAQ sizes, issue width and
// functional-unit counts, the annotation TLB, the recovery penalty, the
// steering policy and both §2.2.2 optimizations with their static
// variants.
func configFromKnobs(k knobReader) config.Config {
	cfg := config.Default().WithPorts(1+k.pick(4), k.pick(4))
	cfg.DCachePortModel = config.PortModel(k.pick(3))
	cfg.LVCPortModel = config.PortModel(k.pick(3))
	cfg.L1 = k.cacheKnobs([]int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 32 << 10}, []int{1, 2, 4}, 3)
	cfg.L2 = k.cacheKnobs([]int{16 << 10, 64 << 10, 512 << 10}, []int{1, 2, 4, 8}, 16)
	cfg.LVC = k.cacheKnobs([]int{256, 512, 1 << 10, 2 << 10, 4 << 10}, []int{1, 2}, 2)
	cfg.MemLatency = uint64(k.pick(101))
	cfg.ROBSize = 4 + k.pick(253)
	cfg.LSQSize = 1 + k.pick(64)
	cfg.LVAQSize = 1 + k.pick(64)
	cfg.IssueWidth = 1 + k.pick(16)
	cfg.IntALUs = 1 + k.pick(16)
	cfg.FPALUs = 1 + k.pick(16)
	cfg.IntMulDiv = 1 + k.pick(4)
	cfg.FPMulDiv = 1 + k.pick(4)
	if k.flag() {
		cfg.TLBEntries = 1 + k.pick(32)
		cfg.TLBMissLatency = uint64(k.pick(30))
	}
	cfg.RecoveryPenalty = uint64(k.pick(20))
	cfg.Steering = config.SteeringPolicy(k.pick(6))
	cfg.FastForward = k.flag()
	cfg.CombineWidth = 1 + k.pick(4)
	cfg.ForwardStatic = cfg.FastForward && k.flag()
	cfg.CombineStatic = cfg.CombineWidth > 1 && k.flag()
	return cfg
}

// engineTestPrograms returns every workload at scale 0.02, hinted and
// hint-stripped, plus every shipped examples/asm program.
func engineTestPrograms(tb testing.TB) []*asm.Program {
	tb.Helper()
	var progs []*asm.Program
	for _, w := range workload.All() {
		progs = append(progs, w.Program(0.02), w.ProgramStripped(0.02))
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "asm", "*.s"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("examples: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := asm.Assemble(filepath.Base(path), string(src))
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// assertEnginesAgree runs prog under cfg on both engines and requires
// identical outcomes: equal Results, or equal typed failures.
func assertEnginesAgree(t *testing.T, prog *asm.Program, cfg config.Config) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("drew an invalid config: %v", err)
	}
	var results [2]*Result
	var errs [2]error
	for i, e := range []Engine{EngineTick, EngineEvent} {
		c, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i], errs[i] = c.RunWith(context.Background(), RunOptions{Engine: e})
	}
	if errs[0] != nil || errs[1] != nil {
		if !reflect.DeepEqual(errs[0], errs[1]) {
			t.Fatalf("outcomes diverge under %+v:\n tick:  %v\n event: %v", cfg, errs[0], errs[1])
		}
		return
	}
	assertResultsIdentical(t, results[0], results[1])
}

// TestEngineIdentityConfigSpace is the config-space differential: every
// workload (hinted and stripped) and every example runs under machines
// drawn from the whole Validate-legal knob space, and the two engines
// must agree exactly. The draws come from a fixed seed, so a failure
// reproduces; FuzzEngineIdentity explores beyond them.
func TestEngineIdentityConfigSpace(t *testing.T) {
	const drawsPerProgram = 3
	rng := rand.New(rand.NewSource(13))
	for i, prog := range engineTestPrograms(t) {
		for d := 0; d < drawsPerProgram; d++ {
			knobs := make([]byte, 64)
			rng.Read(knobs)
			cfg := configFromKnobs(knobs)
			t.Run(fmt.Sprintf("%d-%s/%d-%s-%s", i, prog.Name, d, cfg.Name(), cfg.Steering), func(t *testing.T) {
				t.Parallel()
				assertEnginesAgree(t, prog, cfg)
			})
		}
	}
}

// FuzzEngineIdentity drives the same differential from fuzzer-chosen
// knobs: the first byte picks the program, the rest the machine.
func FuzzEngineIdentity(f *testing.F) {
	progs := engineTestPrograms(f)
	f.Add([]byte{0})
	f.Add([]byte{7, 2, 2, 1, 2, 0, 1, 2, 3, 1, 3, 1, 0, 49, 124, 63, 63, 15, 15, 15, 3, 3, 0, 8, 5, 1, 1, 1, 0, 0})
	f.Add([]byte{30, 0, 1, 2, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 3, 9, 19, 5, 1, 3, 1, 1})
	f.Add([]byte{13, 3, 3, 0, 0, 4, 2, 2, 2, 3, 7, 4, 1, 99, 252, 0, 0, 0, 0, 0, 0, 0, 1, 31, 29, 0, 4, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, knobs []byte) {
		k := knobReader(knobs)
		prog := progs[k.pick(len(progs))]
		assertEnginesAgree(t, prog, configFromKnobs(k))
	})
}
