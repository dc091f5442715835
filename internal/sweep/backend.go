package sweep

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// backend is one ddserve instance: its URL, probed readiness, Retry-After
// cooling window, circuit breaker and census counters.
type backend struct {
	url  string
	name string // short display label ("b0", "b1", ...)
	pos  int    // index in Options.Backends

	client *http.Client

	ready     atomic.Bool
	probed    atomic.Bool  // at least one probe completed
	coolUntil atomic.Int64 // unix nanos; Retry-After backpressure window

	br *breaker

	// census counters (atomics: bumped from many workers).
	dispatched, ok, cached, transient, terminal, shed, hedgeWins atomic.Uint64
}

// dispatchable reports whether the backend may receive a job right now,
// without consuming the breaker's half-open probe slot.
func (b *backend) dispatchable(now time.Time) bool {
	if b.probed.Load() && !b.ready.Load() {
		return false
	}
	if now.UnixNano() < b.coolUntil.Load() {
		return false
	}
	return b.br.admittable(now)
}

// cool records a Retry-After hint: no dispatch to this backend until
// the window passes.
func (b *backend) cool(now time.Time, after time.Duration) {
	if after <= 0 {
		return
	}
	until := now.Add(after).UnixNano()
	for {
		cur := b.coolUntil.Load()
		if until <= cur || b.coolUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// probe checks /readyz once and updates readiness.
func (b *backend) probe(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		b.ready.Store(false)
		b.probed.Store(true)
		return
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.ready.Store(false)
		b.probed.Store(true)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	b.ready.Store(resp.StatusCode == http.StatusOK)
	b.probed.Store(true)
}

// probeLoop re-probes readiness every interval until ctx ends.
func (b *backend) probeLoop(ctx context.Context, interval time.Duration, wg *sync.WaitGroup) {
	defer wg.Done()
	b.probe(ctx)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			b.probe(ctx)
		}
	}
}

// BackendCensus is one backend's contribution to the sweep census.
type BackendCensus struct {
	Name         string `json:"name"`
	URL          string `json:"url"`
	Dispatched   uint64 `json:"dispatched"`
	OK           uint64 `json:"ok"`
	Cached       uint64 `json:"cached"` // OK answers served from the result cache
	Transient    uint64 `json:"transient"`
	Terminal     uint64 `json:"terminal"`
	Shed         uint64 `json:"shed"`
	HedgeWins    uint64 `json:"hedge_wins"`
	BreakerState string `json:"breaker_state"`
	BreakerOpens uint64 `json:"breaker_opens"`
}

func (b *backend) census() BackendCensus {
	state, opens := b.br.snapshot()
	return BackendCensus{
		Name:         b.name,
		URL:          b.url,
		Dispatched:   b.dispatched.Load(),
		OK:           b.ok.Load(),
		Cached:       b.cached.Load(),
		Transient:    b.transient.Load(),
		Terminal:     b.terminal.Load(),
		Shed:         b.shed.Load(),
		HedgeWins:    b.hedgeWins.Load(),
		BreakerState: state.String(),
		BreakerOpens: opens,
	}
}

func (c BackendCensus) String() string {
	return fmt.Sprintf("%s %s: dispatched=%d ok=%d cached=%d transient=%d terminal=%d shed=%d hedge-wins=%d breaker=%s(opens=%d)",
		c.Name, c.URL, c.Dispatched, c.OK, c.Cached, c.Transient, c.Terminal, c.Shed, c.HedgeWins, c.BreakerState, c.BreakerOpens)
}
