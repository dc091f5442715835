// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic workload suite: program bandwidth
// requirements (Fig 5), LVC size and port sensitivity (Figs 6, 7), the
// LVAQ optimizations (Table 3, Figs 8, 9), cache-latency sensitivity
// (Fig 10), per-program port surfaces (Fig 11), workload characterization
// (Figs 2, 3; Tables 1, 2), the §4.2.1 L2-traffic observation, and a set
// of ablations beyond the paper.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/simerr"
	"repro/internal/workload"
)

// Runner executes simulations for the experiment drivers, caching results
// so overlapping experiments (e.g. Fig 7 and Fig 11) share runs. It is
// safe for concurrent use and runs independent simulations in parallel.
// A simulation that panics or fails is contained: the error (a typed
// *simerr.SimError for panics) is returned to every waiter and the
// in-flight bookkeeping is always released, so concurrent callers of the
// same key can never deadlock on a crashed run.
type Runner struct {
	// Scale is the workload scale factor (1.0 = full experiment size).
	Scale float64
	// Progress, when non-nil, receives one line per finished simulation.
	Progress io.Writer
	// RunOpts bounds every simulation this runner starts (cycle caps,
	// deadline, watchdog, fault injection). The zero value reproduces
	// unbounded historical behaviour.
	RunOpts core.RunOptions

	mu       sync.Mutex
	programs map[string]*asm.Program
	results  map[string]*core.Result
	profiles map[string]*profile.Profile
	inflight map[string]*sync.WaitGroup

	// testRun, when non-nil, replaces the core simulation call; tests use
	// it to inject panics, failures and slow runs.
	testRun func(w workload.Workload, cfg config.Config) (*core.Result, error)
}

// NewRunner returns a Runner at the given workload scale.
func NewRunner(scale float64) *Runner {
	if scale <= 0 {
		scale = 1
	}
	return &Runner{
		Scale:    scale,
		programs: make(map[string]*asm.Program),
		results:  make(map[string]*core.Result),
		profiles: make(map[string]*profile.Profile),
		inflight: make(map[string]*sync.WaitGroup),
	}
}

func (r *Runner) program(w workload.Workload) *asm.Program {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.programs[w.Name]
	if !ok {
		p = w.Program(r.Scale)
		r.programs[w.Name] = p
	}
	return p
}

func cfgKey(name string, cfg config.Config) string {
	return name + "|" + cfg.Key()
}

// Result simulates workload w under cfg (cached), unbounded except by the
// runner's RunOpts.
func (r *Runner) Result(w workload.Workload, cfg config.Config) (*core.Result, error) {
	return r.ResultCtx(context.Background(), w, cfg)
}

// ResultCtx simulates workload w under cfg (cached), additionally bounded
// by ctx: cancellation ends the simulation with a typed *simerr.SimError.
func (r *Runner) ResultCtx(ctx context.Context, w workload.Workload, cfg config.Config) (*core.Result, error) {
	res, err := r.cachedRun(cfgKey(w.Name, cfg), w.Name, cfg, func() (*core.Result, error) {
		if r.testRun != nil {
			return r.testRun(w, cfg)
		}
		return r.runProgram(ctx, r.program(w), cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s under %s: %w", w.Name, cfg.Name(), err)
	}
	return res, nil
}

// CachedResults returns how many distinct simulation results the runner
// holds in memory, one per distinct successful run. perfbench reports it
// as experiments.runner_results, the simulations one figure regeneration
// runs.
func (r *Runner) CachedResults() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.results)
}

// ResultProgram simulates an arbitrary named program under cfg, with the
// same caching, containment and progress reporting as workload runs. The
// name spans its own key space ("prog:<name>"), so derived program
// variants (hint-stripped, re-hinted) never alias the generator-hinted
// workload results. The caller must use distinct names for distinct
// program images.
func (r *Runner) ResultProgram(name string, prog *asm.Program, cfg config.Config) (*core.Result, error) {
	res, err := r.cachedRun(cfgKey("prog:"+name, cfg), name, cfg, func() (*core.Result, error) {
		return r.runProgram(context.Background(), prog, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: program %s under %s: %w", name, cfg.Name(), err)
	}
	return res, nil
}

// cachedRun resolves key through the result cache, claiming the key (or
// waiting for the in-flight owner) and then executing run exactly once.
func (r *Runner) cachedRun(key, label string, cfg config.Config, run func() (*core.Result, error)) (*core.Result, error) {
	for {
		r.mu.Lock()
		if res, ok := r.results[key]; ok {
			r.mu.Unlock()
			return res, nil
		}
		if wg, busy := r.inflight[key]; busy {
			r.mu.Unlock()
			wg.Wait()
			continue
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		r.inflight[key] = wg
		r.mu.Unlock()
		break
	}

	res, err := r.simulate(key, run)
	if err != nil {
		return nil, err
	}
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, "  ran %-10s %-8s ipc=%.3f cycles=%d\n",
			label, cfg.Name(), res.IPC(), res.Cycles)
	}
	return res, nil
}

// simulate runs one uncached simulation for key. The deferred block is the
// panic containment and the in-flight release point: a panic anywhere on
// the path (program generation, core construction — the cycle loop itself
// is already contained by core.RunWith) becomes the same typed error the
// core produces, and the block runs on success, on error AND on panic, so
// a crashing run can never strand concurrent waiters on the key.
func (r *Runner) simulate(key string, run func() (*core.Result, error)) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, simerr.Recovered(p)
		}
		r.mu.Lock()
		if err == nil {
			r.results[key] = res
		}
		r.inflight[key].Done()
		delete(r.inflight, key)
		r.mu.Unlock()
	}()
	return run()
}

// runProgram constructs and runs one core simulation under the runner-wide
// options.
func (r *Runner) runProgram(ctx context.Context, prog *asm.Program, cfg config.Config) (*core.Result, error) {
	c, err := core.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	return c.RunWith(ctx, r.RunOpts)
}

// Profile returns the functional profile of workload w (cached).
func (r *Runner) Profile(w workload.Workload) (*profile.Profile, error) {
	r.mu.Lock()
	if p, ok := r.profiles[w.Name]; ok {
		r.mu.Unlock()
		return p, nil
	}
	r.mu.Unlock()

	p, err := profile.Run(r.program(w), 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: profiling %s: %w", w.Name, err)
	}
	r.mu.Lock()
	r.profiles[w.Name] = p
	r.mu.Unlock()
	return p, nil
}

// Prefetch runs the given (workload, config) pairs concurrently to warm
// the cache, bounded by par simultaneous simulations. Every failure is
// reported: the returned error joins the errors of all failed runs.
func (r *Runner) Prefetch(pairs []Pair, par int) error {
	return r.PrefetchCtx(context.Background(), pairs, par)
}

// PrefetchCtx is Prefetch bounded by ctx: once the context is cancelled no
// further simulations start, and the context error joins the result. The
// semaphore is acquired before each worker goroutine is spawned, so at most
// par goroutines (not one per pair) ever exist at once.
func (r *Runner) PrefetchCtx(ctx context.Context, pairs []Pair, par int) error {
	if par < 1 {
		par = 1
	}
	sem := make(chan struct{}, par)
	errCh := make(chan error, len(pairs))
	var wg sync.WaitGroup
	for _, p := range pairs {
		if err := ctx.Err(); err != nil {
			errCh <- err
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(p Pair) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := r.ResultCtx(ctx, p.W, p.Cfg); err != nil {
				errCh <- err
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Pair names one simulation.
type Pair struct {
	W   workload.Workload
	Cfg config.Config
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(r *Runner) (string, error)
}

var experimentList []Experiment

func registerExperiment(e Experiment) {
	experimentList = append(experimentList, e)
}

// AllExperiments returns every registered experiment sorted by ID.
func AllExperiments() []Experiment {
	out := make([]Experiment, len(experimentList))
	copy(out, experimentList)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ErrUnknownExperiment: the requested experiment ID is not registered.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	for _, e := range experimentList {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}
