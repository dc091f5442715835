package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// issueCounter counts traced instructions that consumed an issue slot
// (every instruction is traced once, at commit or at squash).
type issueCounter struct{ issued uint64 }

func (ic *issueCounter) Trace(ev TraceEvent) {
	if ev.IssuedAt != 0 {
		ic.issued++
	}
}

// TestIssueVisitsOnlyReadyEntries is the host-independent check on issue
// selection: the issue stage examines only entries whose operands have
// arrived, so every visit either issues the entry or stalls it on a busy
// functional unit. A scan over not-yet-ready entries would visit many
// times more (dozens per cycle on a full window).
func TestIssueVisitsOnlyReadyEntries(t *testing.T) {
	configs := []struct {
		name string
		cfg  config.Config
	}{
		{"unified", config.Default().WithPorts(2, 0)},
		{"decoupled", config.Default().WithPorts(3, 2).WithOptimizations(2)},
	}
	for _, w := range workload.All() {
		prog := w.Program(0.02)
		for _, tc := range configs {
			c, err := New(prog, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ic issueCounter
			c.SetTracer(&ic)
			res, err := c.Run()
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, tc.name, err)
			}
			if c.issueVisits < ic.issued || c.issueVisits > ic.issued+res.FUStalls {
				t.Errorf("%s %s: %d issue-stage visits for %d issues and %d FU stalls",
					w.Name, tc.name, c.issueVisits, ic.issued, res.FUStalls)
			}
		}
	}
}
