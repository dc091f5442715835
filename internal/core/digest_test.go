package core

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
)

var update = flag.Bool("update", false, "rewrite testdata/result_digests.txt")

// digestsFile holds one line per golden run: program, config, steering
// policy and the sha256 of the run's outcome.
var digestsFile = filepath.Join("testdata", "result_digests.txt")

// TestResultDigests pins the exact Result of a fixed sample of runs on the
// event engine: every engineTestPrograms program under the unified (2+0)
// machine, the optimized (3+2) machine under each steering policy, and two
// seeded draws from the config space. The tick-vs-event differential
// cannot see a change that moves both engines alike; this test can. A
// deliberate timing change regenerates the file with -update.
func TestResultDigests(t *testing.T) {
	type run struct {
		label, cfgName string
		cfg            config.Config
		prog           int
		line           string
	}
	progs := engineTestPrograms(t)
	rng := rand.New(rand.NewSource(15))
	var runs []*run
	for i, prog := range progs {
		label := fmt.Sprintf("%02d-%s", i, prog.Name)
		add := func(name string, cfg config.Config) {
			runs = append(runs, &run{label: label, cfgName: name, cfg: cfg, prog: i})
		}
		add("(2+0)", config.Default().WithPorts(2, 0))
		for s := config.SteerHint; s <= config.SteerSpec; s++ {
			cfg := config.Default().WithPorts(3, 2).WithOptimizations(2)
			cfg.Steering = s
			add("(3+2)+opt", cfg)
		}
		for d := 0; d < 2; d++ {
			knobs := make([]byte, 64)
			rng.Read(knobs)
			cfg := configFromKnobs(knobs)
			add(fmt.Sprintf("knobs%d%s", d, cfg.Name()), cfg)
		}
	}

	work := make(chan *run)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				var outcome string
				c, err := New(progs[r.prog], r.cfg)
				if err == nil {
					var res *Result
					if res, err = c.RunWith(context.Background(), RunOptions{Engine: EngineEvent}); err == nil {
						outcome = fmt.Sprintf("%+v", *res)
					}
				}
				if err != nil {
					outcome = fmt.Sprintf("error %+v", err)
				}
				r.line = fmt.Sprintf("%s %s %s %x", r.label, r.cfgName, r.cfg.Steering,
					sha256.Sum256([]byte(outcome)))
			}
		}()
	}
	for _, r := range runs {
		work <- r
	}
	close(work)
	wg.Wait()

	var b strings.Builder
	for _, r := range runs {
		b.WriteString(r.line + "\n")
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(runs) {
		t.Fatalf("%s has %d lines, the sample has %d runs", digestsFile, len(want), len(runs))
	}
	for i, r := range runs {
		if r.line != want[i] {
			t.Errorf("result changed:\n got  %s\n want %s", r.line, want[i])
		}
	}
}
