package sweep

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// benchGrid is the grid the sweep-serve benchmark draws its points from:
// every workload x 11 port geometries x 4 steering policies x 3 modes.
func benchGrid() *Spec {
	return &Spec{
		Schema:    SpecSchema,
		Name:      "bench-grid",
		Workloads: workload.Names(),
		Ports:     []string{"1+1", "2+0", "2+1", "2+2", "3+0", "3+1", "3+2", "3+3", "4+0", "4+1", "4+2"},
		Steering:  []string{"hint", "sp", "dual", "oracle"},
		Modes:     []string{"base", "opt", "static"},
		Scale:     0.05,
	}
}

// A point's home is a function of its key and the URL set alone: listing
// the backends in any order gives the same rank, and two backends split
// the benchmark grid about evenly.
func TestCoordinatorRankIgnoresBackendOrder(t *testing.T) {
	points, err := benchGrid().Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 528*3 {
		t.Fatalf("bench grid has %d points, want %d", len(points), 528*3)
	}
	pairs := [][2]string{
		{"http://127.0.0.1:8080", "http://127.0.0.1:8081"},
		{"http://127.0.0.1:40123", "http://127.0.0.1:37711"},
		{"http://sim0:8080", "http://sim1:8080"},
	}
	for _, pair := range pairs {
		fwd, err := New(benchGrid(), Options{Backends: []string{pair[0], pair[1]}})
		if err != nil {
			t.Fatal(err)
		}
		// A trailing slash names the same backend.
		rev, err := New(benchGrid(), Options{Backends: []string{pair[1] + "/", pair[0]}})
		if err != nil {
			t.Fatal(err)
		}
		homes := map[string]int{}
		for _, p := range points {
			a, b := fwd.rank(p.Key), rev.rank(p.Key)
			for i := range a {
				if a[i].url != b[i].url {
					t.Fatalf("%v: rank of %s depends on the backend order: %s vs %s", pair, p.Key, a[i].url, b[i].url)
				}
			}
			homes[a[0].url]++
		}
		for _, url := range pair {
			share := float64(homes[url]) / float64(len(points))
			if share < 0.40 || share > 0.60 {
				t.Errorf("%v: %s is home to %.1f%% of the grid, want 40-60%%", pair, url, 100*share)
			}
		}
	}
}

// While the home backend is not ready, cooling after a shed or behind an
// open breaker, its points go to the second-ranked backend; once the home
// admits again they return to it.
func TestCoordinatorFallbackReturnsHome(t *testing.T) {
	opts := Options{Backends: []string{"http://sim0:8080", "http://sim1:8080"}, BreakerThreshold: 2, BreakerCooldown: time.Second}
	c, err := New(testSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	order := c.rank("li/2+0/hint/event/base")
	home, second := order[0], order[1]
	now := time.Now()
	expect := func(when string, at time.Time, want *backend) {
		t.Helper()
		if got := pickBackend(at, order, nil); got != want {
			t.Fatalf("%s: picked %v, want %s", when, got, want.url)
		}
	}
	expect("healthy", now, home)

	home.probed.Store(true)
	home.ready.Store(false)
	expect("home not ready", now, second)
	home.ready.Store(true)
	expect("home ready again", now, home)

	home.cool(now, time.Second)
	expect("home cooling", now, second)
	expect("cooling over", now.Add(2*time.Second), home)

	now = now.Add(3 * time.Second)
	home.br.transient(now)
	home.br.transient(now)
	expect("home breaker open", now, second)
	expect("breaker half-open", now.Add(2*time.Second), home)
	home.br.success()
	expect("breaker closed", now.Add(2*time.Second), home)

	// A hedge skips the primary and goes to the next-ranked backend.
	if got := pickBackend(now, order, home); got != second {
		t.Fatalf("hedge picked %v, want %s", got, second.url)
	}
}

// The feed never sends a backend more than its share of the sweep's
// points while it could keep every backend busy: with two workers and two
// backends, each backend holds at most one point at a time, so no point
// queues behind another on its home while the other backend idles.
func TestCoordinatorFeedSpreadsHomes(t *testing.T) {
	var live, peak [2]atomic.Int64
	slow := func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			spec := decodeSpec(t, r)
			n := live[i].Add(1)
			for {
				m := peak[i].Load()
				if n <= m || peak[i].CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			live[i].Add(-1) // before answering: the client may post again at once
			respondJSON(w, http.StatusOK, stubResult(spec))
		}
	}
	b0, b1 := newStub(t, slow(0)), newStub(t, slow(1))
	spec := &Spec{Schema: SpecSchema, Name: "spread",
		Workloads: []string{"li", "go", "compress"}, Ports: []string{"2+0", "3+2", "2+2"},
		Modes: []string{"base", "opt"}}
	opts := fastOpts(b0.URL, b1.URL)
	opts.Parallel = 2
	fig, census, err := runSweep(t, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 18 {
		t.Fatalf("sweep incomplete: %v", census.Failed)
	}
	for i := range peak {
		if p := peak[i].Load(); p != 1 {
			t.Errorf("backend %d held %d points at once, want 1 (census %+v)", i, p, census.Backends)
		}
	}
}

// startServe runs a real ddserve backend with its own cache directory.
func startServe(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := serve.New(serve.Options{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts
}

func readStatz(t *testing.T, url string) serve.Statz {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// Two overlapping sweeps over two real backends simulate each distinct
// point once fleet-wide: every repeat reaches the backend that computed
// it and is answered from that backend's cache.
func TestRepeatedSweepSimulatesOnce(t *testing.T) {
	b0, b1 := startServe(t), startServe(t)
	first := &Spec{Schema: SpecSchema, Name: "first",
		Workloads: []string{"li", "go"}, Ports: []string{"2+0", "3+2"},
		Modes: []string{"base", "opt"}, Scale: 0.02}
	second := &Spec{Schema: SpecSchema, Name: "second",
		Workloads: []string{"li", "go", "compress"}, Ports: []string{"2+0", "3+2"},
		Modes: []string{"base", "opt"}, Scale: 0.02}
	const distinct, repeats = 12, 8

	opts := fastOpts(b0.URL, b1.URL)
	opts.Parallel = 4
	if _, _, err := runSweep(t, first, opts); err != nil {
		t.Fatal(err)
	}
	_, census, err := runSweep(t, second, opts)
	if err != nil {
		t.Fatal(err)
	}

	var simulated, hits uint64
	for _, url := range []string{b0.URL, b1.URL} {
		st := readStatz(t, url)
		simulated += st.Completed
		hits += st.Cache.Hits
	}
	if simulated != distinct || hits != repeats {
		t.Fatalf("fleet simulated %d jobs and served %d from cache; want %d and %d", simulated, hits, distinct, repeats)
	}
	var cached uint64
	for _, b := range census.Backends {
		cached += b.Cached
	}
	if cached != repeats {
		t.Fatalf("census counts %d cached answers, want %d: %+v", cached, repeats, census.Backends)
	}
}
