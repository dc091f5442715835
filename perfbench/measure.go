package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// opSample is one operation of a workload: a program simulation
// (sim-suite), an experiment (figures) or a service job (sweep-serve).
type opSample struct {
	dur    time.Duration
	failed bool // aborted, or produced a wrong output
	wrong  bool // produced an output that differs from its reference
}

// outcome is everything one workload run measured.
type outcome struct {
	setup    []float64 // seconds per set-up repetition
	rounds   []float64 // seconds per round (suite pass, regeneration, sweep)
	ops      []opSample
	wall     time.Duration // measured phase
	failures []string
	layers   layerValues
	// earlier counts the operations of an earlier run in the same
	// process (the untraced half of a traced run).
	earlier struct{ attempted, failed, wrong int }
	// latencyMS, when set, replaces the operations' latencies in op_p50_ms
	// and op_tail_ms (figures: the regenerations a user waits for).
	latencyMS []float64
	named     []namedMetric
	peakRSSMB float64
}

func newOutcome() *outcome { return &outcome{layers: make(layerValues)} }

// ok records a successful operation.
func (o *outcome) ok(d time.Duration) { o.ops = append(o.ops, opSample{dur: d}) }

// fail records a failed operation with a one-line description; wrong marks
// an operation that completed with an output differing from its reference.
func (o *outcome) fail(d time.Duration, wrong bool, format string, args ...any) {
	o.ops = append(o.ops, opSample{dur: d, failed: true, wrong: wrong})
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check records an operation whose output digest got must equal want.
func (o *outcome) check(d time.Duration, label, got, want string) {
	switch {
	case want == "":
		o.fail(d, true, "%s: no reference digest", label)
	case got != want:
		o.fail(d, true, "%s: output digest %s, reference %s", label, got, want)
	default:
		o.ok(d)
	}
}

func (o *outcome) counts() (attempted, failed, wrong int) {
	attempted, failed, wrong = o.earlier.attempted, o.earlier.failed, o.earlier.wrong
	for _, s := range o.ops {
		attempted++
		if s.failed {
			failed++
		}
		if s.wrong {
			wrong++
		}
	}
	return
}

// mergeCounts folds another run's operation counts and failures into o,
// so that a traced run reports every operation it attempted.
func (o *outcome) mergeCounts(other *outcome) {
	a, f, w := other.counts()
	o.earlier.attempted += a
	o.earlier.failed += f
	o.earlier.wrong += w
	o.failures = append(o.failures, other.failures...)
}

func (o *outcome) roundMedian() float64 { return median(o.rounds) }

// opLatenciesMS returns every operation's latency in ms. A failed
// operation counts as missing any latency limit: it is given the whole
// measured phase as its latency.
func (o *outcome) opLatenciesMS() []float64 {
	lat := make([]float64, len(o.ops))
	for i, s := range o.ops {
		d := s.dur
		if s.failed && o.wall > d {
			d = o.wall
		}
		lat[i] = ms(d)
	}
	return lat
}

// endToEnd computes the end-to-end metrics every workload reports.
func (o *outcome) endToEnd() map[string]float64 {
	lat := o.latencyMS
	if lat == nil {
		lat = o.opLatenciesMS()
	}
	succeeded := 0
	for _, s := range o.ops {
		if !s.failed {
			succeeded++
		}
	}
	tail := tailOf(lat)
	return map[string]float64{
		"setup_s":     median(o.setup),
		"peak_rss_mb": o.peakRSSMB,
		"ops_per_s":   float64(succeeded) / o.wall.Seconds(),
		"op_p50_ms":   percentile(lat, 50),
		"op_tail_ms":  tail.value,
	}
}

// tail is the highest-percentile latency with at least ten samples beyond
// it, with the percentile and the sample count it was taken from.
type tail struct {
	value float64
	q     float64
	n     int
}

func (t tail) String() string { return fmt.Sprintf("p%g of %d samples", t.q, t.n) }

// tailLadder lists the percentiles the tail is chosen from, highest first.
var tailLadder = []float64{99.99, 99.9, 99.5, 99, 98, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder whose
// nearest-rank sample has at least ten samples beyond it in n samples. With
// fewer than 20 samples no percentile qualifies and it returns the median.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if n-nearestRank(q, n) >= 10 {
			return q
		}
	}
	return 50
}

// nearestRank is the 1-based rank of percentile q among n samples.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

func tailOf(xs []float64) tail {
	q := tailPercentile(len(xs))
	return tail{value: percentile(xs, q), q: q, n: len(xs)}
}

// percentile returns the nearest-rank q-th percentile of xs (0 if empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(q, len(s))-1]
}

// median returns the median of xs, averaging the middle pair (0 if empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// errRoundsDone tells runRounds that the workload has no further round.
var errRoundsDone = errors.New("no further round")

// runRounds runs round until the budget is spent, at least once. A further
// round starts only if the previous round's duration still fits in the
// budget, so a run overshoots its budget by less than one round. It
// returns the measured wall time.
func runRounds(budget time.Duration, o *outcome, round func(i int) error) (time.Duration, error) {
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= budget; i++ {
		t := time.Now()
		if err := round(i); errors.Is(err, errRoundsDone) {
			break
		} else if err != nil {
			return time.Since(start), err
		}
		last = time.Since(t)
		o.rounds = append(o.rounds, last.Seconds())
	}
	return time.Since(start), nil
}

// addNamed records one of the workload-specific end-to-end names.
func (o *outcome) addNamed(name string, value float64, unit, note string) {
	o.named = append(o.named, namedMetric{Name: name, Value: value, Unit: unit, Note: note})
}
