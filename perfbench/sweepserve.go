package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

const (
	// sweepScale is the figure scale every sweep point runs at.
	sweepScale = 0.05
	// sweepHedge is the hedging delay: longer than most simulations at
	// sweepScale, so hedges fire only for the slowest ones (a few dozen
	// per run on a 2-vCPU host; at 250 ms none fired at all).
	sweepHedge = 150 * time.Millisecond
)

// sweepPorts and sweepSteering span the grid cells the sweeps draw from;
// every cell runs in all three modes.
var (
	sweepPorts    = []string{"1+1", "2+0", "2+1", "2+2", "3+0", "3+1", "3+2", "3+3", "4+0", "4+1", "4+2"}
	sweepSteering = []string{"hint", "sp", "dual", "oracle"}
	sweepModes    = []string{"base", "opt", "static"}
)

// sweepCell is one (workload, ports, steering) grid cell: three points,
// one per mode.
type sweepCell struct{ workload, ports, steering string }

// sweepPlan generates the seeded sequence of overlapping sweeps. Every
// sweep has repeatCells cells an earlier sweep already computed (new
// cells while there are too few) and one new cell, so four fifths of its
// jobs repeat a point. A repeat that lands on the backend that has not
// computed the point yet is simulated again, so about a third of all jobs
// end up simulated: the median job is a reuse and the tail job a
// simulation.
type sweepPlan struct {
	rng   *rand.Rand
	fresh []sweepCell // not yet used, in seeded order
	used  []sweepCell
	seen  map[sweepCell]bool
}

const (
	repeatCells = 28
	newCells    = 4
)

// newSweepPlan orders the fresh cells so that any seed draws the same mix
// of simulation costs, which differ fourfold between programs and by a
// third between port geometries. The cells come in rounds that hold every
// workload once. Each workload's cells come in blocks that hold every port
// geometry once, with the steering policies rotated across blocks. The seed
// picks the order within each round and block.
func newSweepPlan(seed uint64) *sweepPlan {
	rng := rand.New(rand.NewSource(int64(seed)))
	names := workload.Names()
	perWorkload := make([][]sweepCell, len(names))
	for i, w := range names {
		for b := range sweepSteering {
			for _, p := range rng.Perm(len(sweepPorts)) {
				perWorkload[i] = append(perWorkload[i], sweepCell{w, sweepPorts[p], sweepSteering[(b+p)%len(sweepSteering)]})
			}
		}
	}
	var fresh []sweepCell
	for round := 0; round < len(sweepPorts)*len(sweepSteering); round++ {
		for _, i := range rng.Perm(len(names)) {
			fresh = append(fresh, perWorkload[i][round])
		}
	}
	return &sweepPlan{rng: rng, fresh: fresh, seen: make(map[sweepCell]bool)}
}

// next returns the cells of the next sweep.
func (p *sweepPlan) next() []sweepCell {
	var cells []sweepCell
	take := func() {
		if len(p.fresh) > 0 {
			cells = append(cells, p.fresh[0])
			p.fresh = p.fresh[1:]
		}
	}
	if len(p.used) < repeatCells {
		for k := 0; k < repeatCells; k++ {
			take()
		}
	} else {
		for _, k := range p.rng.Perm(len(p.used))[:repeatCells] {
			cells = append(cells, p.used[k])
		}
	}
	for k := 0; k < newCells; k++ {
		take()
	}
	for _, c := range cells {
		if !p.seen[c] {
			p.seen[c] = true
			p.used = append(p.used, c)
		}
	}
	return cells
}

// plannedSweep is one sweep of the sequence, expanded into its points.
type plannedSweep struct {
	spec   *sweep.Spec
	points []sweep.Point
}

// planSweeps expands every sweep of the seed's sequence that still brings
// new cells. It builds the points the way sweep.Spec.Points does, without
// matching the exclusions.
func planSweeps(seed uint64) []plannedSweep {
	plan := newSweepPlan(seed)
	var out []plannedSweep
	for i := 0; len(plan.fresh) > 0; i++ {
		cells := plan.next()
		var points []sweep.Point
		for _, c := range cells {
			for _, mode := range sweepModes {
				gp := experiments.GridPoint{Workload: c.workload, Ports: c.ports, Steering: c.steering, Engine: "event",
					Opt: mode == "opt", StaticOpt: mode == "static"}
				points = append(points, sweep.Point{GP: gp, Mode: mode, Key: gp.Key()})
			}
		}
		out = append(out, plannedSweep{cellSpec(fmt.Sprintf("bench-%d", i), cells), points})
	}
	return out
}

func containsCell(cells []sweepCell, c sweepCell) bool {
	for _, x := range cells {
		if x == c {
			return true
		}
	}
	return false
}

// cellSpec builds the grid spanning cells and excludes the grid's other
// cells.
func cellSpec(name string, cells []sweepCell) *sweep.Spec {
	s := &sweep.Spec{Schema: sweep.SpecSchema, Name: name, Modes: sweepModes, Scale: sweepScale}
	add := func(list []string, v string) []string {
		for _, x := range list {
			if x == v {
				return list
			}
		}
		return append(list, v)
	}
	for _, c := range cells {
		s.Workloads = add(s.Workloads, c.workload)
		s.Ports = add(s.Ports, c.ports)
		s.Steering = add(s.Steering, c.steering)
	}
	for _, w := range s.Workloads {
		for _, p := range s.Ports {
			for _, st := range s.Steering {
				if !containsCell(cells, sweepCell{w, p, st}) {
					s.Exclude = append(s.Exclude, sweep.Exclusion{Workload: w, Ports: p, Steering: st})
				}
			}
		}
	}
	return s
}

// backend is one in-process ddserve instance behind a loopback listener.
type backend struct {
	name string
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startBackend(name, cacheDir string, mw func(string, http.Handler) http.Handler) (*backend, error) {
	srv, err := serve.New(serve.Options{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		return nil, fmt.Errorf("starting backend %s: %w", name, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, fmt.Errorf("starting backend %s: %w", name, err)
	}
	var h http.Handler = srv.Handler()
	if mw != nil {
		h = mw(name, h)
	}
	b := &backend{name: name, srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		b.http.Serve(ln)
	}()
	return b, nil
}

// waitReady polls /readyz until the backend answers 200.
func (b *backend) waitReady(c *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(b.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backend %s not ready: %v", b.name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (b *backend) statz(c *http.Client) (*serve.Statz, error) {
	resp, err := c.Get(b.url + "/statz")
	if err != nil {
		return nil, fmt.Errorf("reading /statz of %s: %w", b.name, err)
	}
	defer resp.Body.Close()
	var st serve.Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statz of %s: %w", b.name, err)
	}
	return &st, nil
}

// stop shuts the listener and the service down and waits for both.
func (b *backend) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.http.Shutdown(ctx)
	<-b.done
	b.srv.Shutdown(ctx)
}

// fleet is the two backends and the client the coordinator uses.
type fleet struct {
	backends []*backend
	rt       *jobTransport
	client   *http.Client
	server   *serverLog // nil in untraced runs
}

func startFleet(dir string, tr *tracer) (*fleet, error) {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 16
	f := &fleet{rt: &jobTransport{base: base, tracer: tr}}
	f.client = &http.Client{Transport: f.rt}
	var mw func(string, http.Handler) http.Handler
	if tr != nil {
		f.server = &serverLog{tracer: tr}
		mw = f.server.middleware
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("b%d", i)
		cache := filepath.Join(dir, name+"-cache")
		if err := os.MkdirAll(cache, 0o755); err != nil {
			f.stop()
			return nil, err
		}
		b, err := startBackend(name, cache, mw)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, b)
		if err := b.waitReady(f.client); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) urls() []string {
	var u []string
	for _, b := range f.backends {
		u = append(u, b.url)
	}
	return u
}

func (f *fleet) stop() {
	for _, b := range f.backends {
		b.stop()
	}
	f.rt.base.CloseIdleConnections()
}

// jobTransport times every POST /jobs from the coordinator's side and
// keeps the first dispatch time of each point of the current sweep.
type jobTransport struct {
	base   *http.Transport
	tracer *tracer

	mu      sync.Mutex
	first   map[string]time.Time // point key -> first POST of this sweep
	firstAt time.Time            // first POST of this sweep
	round   *span
}

// beginSweep resets the per-sweep state.
func (t *jobTransport) beginSweep(round *span) {
	t.mu.Lock()
	t.first = make(map[string]time.Time)
	t.round = round
	t.firstAt = time.Time{}
	t.mu.Unlock()
}

func (t *jobTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/jobs" || req.Body == nil {
		return t.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	var spec serve.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, fmt.Errorf("job body: %w", err)
	}
	key := specKey(spec)
	now := time.Now()
	t.mu.Lock()
	if _, ok := t.first[key]; !ok {
		t.first[key] = now
	}
	if t.firstAt.IsZero() {
		t.firstAt = now
	}
	parent := t.round
	t.mu.Unlock()

	r2 := req.Clone(req.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	s := t.tracer.start(parent, "sweep.post", "point", key, "backend", req.URL.Host)
	if s != nil {
		r2.Header.Set(spanHeader, strconv.FormatUint(s.id(), 10))
	}
	resp, err := t.base.RoundTrip(r2)
	if err != nil {
		s.set("error", err.Error())
		s.end()
		return nil, err
	}
	s.set("status", resp.StatusCode, "job_key", resp.Header.Get("X-Job-Key"))
	resp.Body = &spanBody{ReadCloser: resp.Body, s: s}
	return resp, nil
}

// spanBody ends the request's span when the body is closed.
type spanBody struct {
	io.ReadCloser
	s    *span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.s.end)
	return err
}

func (t *jobTransport) firstPost(key string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.first[key]
	return at, ok
}

func (t *jobTransport) firstOfSweep() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.firstAt
}

// specKey is the sweep point key of a job, matching sweep.Point.Key.
func specKey(s serve.JobSpec) string {
	return experiments.GridPoint{
		Workload: s.Workload, Ports: s.Ports, Steering: s.Steer, Engine: s.Engine,
		Opt: s.Opt, Combine: s.Combine, StaticOpt: s.StaticOpt, MaxInsts: s.MaxInsts,
	}.Key()
}

// spanHeader carries the client span id to the backend middleware.
const spanHeader = "X-Bench-Span"

// serverLog is the traced run's middleware around each backend handler:
// one span per request, keyed by X-Job-Key, and the figures the serve
// metrics need.
type serverLog struct {
	tracer *tracer
	mu     sync.Mutex
	reqs   []serverReq
}

type serverReq struct {
	backend    string
	key        string
	start, end time.Time
	status     int
	cached     bool
	wall       float64 // JobResult.WallSeconds
	bytes      int
}

func (l *serverLog) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/jobs" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		s := l.tracer.startUnder(parent, "serve.handler", "backend", name)
		rec := &recorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		req := serverReq{
			backend: name,
			key:     rec.Header().Get("X-Job-Key"),
			start:   start,
			end:     time.Now(),
			status:  rec.status,
			bytes:   rec.body.Len(),
		}
		if rec.status == http.StatusOK {
			var jr serve.JobResult
			if json.Unmarshal(rec.body.Bytes(), &jr) == nil {
				req.cached, req.wall = jr.Cached, jr.WallSeconds
			}
		}
		s.set("job_key", req.key, "status", req.status, "cached", req.cached, "wall_seconds", req.wall, "bytes", req.bytes)
		s.end()
		l.mu.Lock()
		l.reqs = append(l.reqs, req)
		l.mu.Unlock()
	})
}

// recorder copies the response body and status as they are written.
type recorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

// sweepRecord is what one measured sweep left for verification.
type sweepRecord struct {
	spec    *sweep.Spec
	points  []sweep.Point
	fig     *sweep.Figure
	census  *sweep.Census
	latency map[string]time.Duration
	start   time.Time
	wall    time.Duration
	// firstDispatch is the time from the start of the sweep to its first
	// POST.
	firstDispatch time.Duration
}

func runSweepServe(e *env) (*outcome, error) {
	o := newOutcome()

	// Set-up: start two backends on fresh cache directories and wait until
	// both are ready; expand the seeded sweep sequence into grid points.
	var fl *fleet
	var sweeps []plannedSweep
	for rep := 0; rep < setupReps; rep++ {
		if fl != nil {
			fl.stop()
		}
		sp := e.tracer.start(nil, "setup", "rep", rep)
		t0 := time.Now()
		dir, err := os.MkdirTemp(e.scratch, "fleet-")
		if err != nil {
			return nil, err
		}
		if fl, err = startFleet(dir, e.tracer); err != nil {
			return nil, err
		}
		sweeps = planSweeps(e.seed)
		o.setup = append(o.setup, time.Since(t0).Seconds())
		sp.end()
	}
	defer fl.stop()

	parallel := runtime.NumCPU()
	var records []*sweepRecord
	wall, err := runRounds(e.budget, o, func(i int) error {
		if i == len(sweeps) {
			return errRoundsDone
		}
		spec, points := sweeps[i].spec, sweeps[i].points
		rs := e.tracer.start(nil, "round", "sweep", i, "points", len(points))
		defer rs.end()
		rec := &sweepRecord{spec: spec, points: points, latency: make(map[string]time.Duration)}
		var mu sync.Mutex
		fl.rt.beginSweep(rs)
		co, err := sweep.New(spec, sweep.Options{
			Backends:   fl.urls(),
			Parallel:   parallel,
			Hedge:      sweepHedge,
			Seed:       int64(e.seed) + int64(i),
			HTTPClient: fl.client,
			OnPoint: func(key, outcome string) {
				if at, ok := fl.rt.firstPost(key); ok {
					mu.Lock()
					rec.latency[key] = time.Since(at)
					mu.Unlock()
				}
			},
		})
		if err != nil {
			return fmt.Errorf("sweep %d: %w", i, err)
		}
		cs := e.tracer.start(rs, "sweep.Coordinator.Run")
		rec.start = time.Now()
		rec.fig, rec.census, err = co.Run(context.Background())
		rec.wall = time.Since(rec.start)
		cs.end()
		if rec.fig == nil {
			return fmt.Errorf("sweep %d: %w", i, err)
		}
		if first := fl.rt.firstOfSweep(); !first.IsZero() {
			rec.firstDispatch = first.Sub(rec.start)
		}
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.wall = wall
	e.measured()

	// Verification, outside the measured phase.
	if err := verifySweeps(o, records); err != nil {
		return nil, err
	}
	lat := o.opLatenciesMS()
	tl := tailOf(lat)
	sweepTimes := make([]float64, len(records))
	for i, r := range records {
		sweepTimes[i] = r.wall.Seconds()
	}
	_, failed, _ := o.counts()
	o.addNamed("sweep_s", median(sweepTimes), "s", fmt.Sprintf("median over %d sweeps", len(records)))
	o.addNamed("jobs_per_s", float64(len(o.ops)-failed)/wall.Seconds(), "1/s", fmt.Sprintf("%d jobs, Parallel=%d, 2 backends x 1 worker, hedge %v", len(o.ops), parallel, sweepHedge))
	o.addNamed("job_p50_ms", percentile(lat, 50), "ms", "")
	o.addNamed("job_tail_ms", tl.value, "ms", tl.String())

	if !e.traced() {
		return o, nil
	}
	return o, sweepLayers(o, fl, records)
}

// verifySweeps checks every sweep's figure, byte for byte and point by
// point, against an in-process reference built from the same grid points
// without the service, and records one operation per point.
func verifySweeps(o *outcome, records []*sweepRecord) error {
	ref, err := referencePoints(records)
	if err != nil {
		return err
	}
	for _, rec := range records {
		got := make(map[string]*sweep.FigurePoint)
		for i := range rec.fig.Points {
			got[rec.fig.Points[i].Key] = &rec.fig.Points[i]
		}
		want := &sweep.Figure{Schema: rec.fig.Schema, Name: rec.fig.Name, SpecID: rec.fig.SpecID, Scale: rec.fig.Scale}
		bad := 0
		for _, p := range rec.points {
			fp := ref[p.Key]
			want.Points = append(want.Points, *fp)
			d := rec.latency[p.Key]
			switch g := got[p.Key]; {
			case rec.census.Failed[p.Key] != "":
				o.fail(d, false, "%s %s: %s", rec.spec.Name, p.Key, rec.census.Failed[p.Key])
				bad++
			case g == nil:
				o.fail(d, false, "%s %s: missing from the figure", rec.spec.Name, p.Key)
				bad++
			case *g != *fp:
				o.fail(d, true, "%s %s: %+v, reference %+v", rec.spec.Name, p.Key, *g, *fp)
				bad++
			default:
				o.ok(d)
			}
		}
		sort.Slice(want.Points, func(i, j int) bool { return want.Points[i].Key < want.Points[j].Key })
		var gb, wb bytes.Buffer
		if err := rec.fig.EncodeJSON(&gb); err != nil {
			return err
		}
		if err := want.EncodeJSON(&wb); err != nil {
			return err
		}
		if bad == 0 && !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			o.fail(0, true, "%s: figure bytes differ from the reference", rec.spec.Name)
		}
	}
	return nil
}

// referencePoints simulates every distinct point of the sweeps directly,
// one simulation per point on each of nproc goroutines.
func referencePoints(records []*sweepRecord) (map[string]*sweep.FigurePoint, error) {
	var todo []sweep.Point
	seen := make(map[string]bool)
	for _, rec := range records {
		for _, p := range rec.points {
			if !seen[p.Key] {
				seen[p.Key] = true
				todo = append(todo, p)
			}
		}
	}
	ref := make([]*sweep.FigurePoint, len(todo))
	errs := make([]error, len(todo))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ref[i], errs[i] = referencePoint(todo[i])
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make(map[string]*sweep.FigurePoint, len(todo))
	for i, p := range todo {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[p.Key] = ref[i]
	}
	return out, nil
}

// referencePoint simulates one grid point directly, in process, and
// renders it as the coordinator renders a backend's answer.
func referencePoint(p sweep.Point) (*sweep.FigurePoint, error) {
	cfg, err := p.GP.Config()
	if err != nil {
		return nil, err
	}
	eng, err := p.GP.RunEngine()
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName(p.GP.Workload)
	if err != nil {
		return nil, err
	}
	c, err := core.New(w.Program(sweepScale), cfg)
	if err != nil {
		return nil, err
	}
	res, err := c.RunWith(context.Background(), core.RunOptions{Engine: eng})
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", p.Key, err)
	}
	engine := p.GP.Engine
	if engine == "" {
		engine = "event"
	}
	return &sweep.FigurePoint{
		Key: p.Key, Workload: p.GP.Workload, Ports: res.Config, Steering: cfg.Steering.String(),
		Engine: engine, Mode: p.Mode,
		Cycles: res.Cycles, Committed: res.Committed, IPC: res.IPC(), Loads: res.Loads,
		Stores: res.Stores, LocalFraction: res.LocalFraction(), Misroutes: res.Misroutes,
	}, nil
}

// sweepLayers derives the serve and sweep per-layer metrics of a traced
// run from the middleware log, /statz and the sweep census.
func sweepLayers(o *outcome, fl *fleet, records []*sweepRecord) error {
	l := o.layers
	var firsts []float64
	for _, r := range records {
		firsts = append(firsts, ms(r.firstDispatch))
	}
	l["sweep.first_dispatch_ms"] = median(firsts)

	var launched, lost, retries float64
	for _, r := range records {
		for k, n := range r.census.Outcomes {
			switch {
			case k == "hedge-launched":
				launched += float64(n)
			case k == "hedge-lost":
				lost += float64(n)
			case strings.HasPrefix(k, "retried:"):
				retries += float64(n)
			}
		}
	}
	l["sweep.hedges_launched"] = launched
	l["sweep.hedge_waste_frac"] = frac(lost, launched)
	l["sweep.retries"] = retries

	for _, b := range fl.backends {
		st, err := b.statz(fl.client)
		if err != nil {
			return err
		}
		l["serve.cache_hits"] += float64(st.Cache.Hits)
		l["serve.cache_misses"] += float64(st.Cache.Misses)
		l["serve.cache_writes"] += float64(st.Cache.Writes)
	}

	fl.server.mu.Lock()
	reqs := append([]serverReq(nil), fl.server.reqs...)
	fl.server.mu.Unlock()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].end.Before(reqs[j].end) })
	var overhead, sim []float64
	var okN, cachedN, resim, bytesSum float64
	doneOn := map[string]map[string]bool{} // key -> backends that answered it
	for _, r := range reqs {
		if r.status != http.StatusOK {
			continue
		}
		okN++
		bytesSum += float64(r.bytes)
		handler := ms(r.end.Sub(r.start))
		if r.cached {
			cachedN++
			overhead = append(overhead, handler)
		} else {
			sim = append(sim, r.wall*1000)
			overhead = append(overhead, handler-r.wall*1000)
			if on := doneOn[r.key]; len(on) > 0 && !on[r.backend] {
				resim++
			}
		}
		if doneOn[r.key] == nil {
			doneOn[r.key] = map[string]bool{}
		}
		doneOn[r.key][r.backend] = true
	}
	l["serve.overhead_p50_ms"] = percentile(overhead, 50)
	l["serve.sim_p50_ms"] = percentile(sim, 50)
	l["serve.reuse_frac"] = frac(cachedN, okN)
	l["serve.repeat_resimulated"] = resim
	l["serve.response_bytes"] = frac(bytesSum, okN)

	// Idle share: time within each sweep when no request was in flight at
	// any backend.
	var idle, total time.Duration
	for _, rec := range records {
		end := rec.start.Add(rec.wall)
		var iv [][2]time.Time
		for _, r := range reqs {
			if r.end.After(rec.start) && r.start.Before(end) {
				iv = append(iv, [2]time.Time{maxTime(r.start, rec.start), minTime(r.end, end)})
			}
		}
		total += rec.wall
		idle += rec.wall - covered(iv)
	}
	l["sweep.idle_frac"] = frac(float64(idle), float64(total))
	return nil
}

// covered is the length of the union of the intervals.
func covered(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var sum time.Duration
	var curS, curE time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curE) {
			sum += curE.Sub(curS)
			curS, curE = x[0], x[1]
			continue
		}
		if x[1].After(curE) {
			curE = x[1]
		}
	}
	return sum + curE.Sub(curS)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
