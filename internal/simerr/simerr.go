// Package simerr defines the typed failure taxonomy of the simulation
// harness. Every abnormal end of a timing-simulation run — a cancelled
// context, an exhausted cycle bound, a forward-progress watchdog trip, or a
// contained invariant-violation panic — is reported as a *SimError carrying
// a Snapshot of the pipeline at the moment of failure (cycle, ROB head,
// per-stream queue heads, port and combining-window state), so a hung or
// crashed run is diagnosable from the error value alone.
//
// The package is a leaf: it depends on nothing inside the repository, so
// the core, the experiment runner and the public facade can all share the
// same error type without import cycles.
package simerr

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// Kind classifies why a simulation run ended abnormally.
type Kind uint8

const (
	// KindUnknown is the zero value; no SimError should ship with it.
	KindUnknown Kind = iota
	// KindWatchdog: the forward-progress watchdog found no committed
	// instruction for its whole window — a livelocked pipeline.
	KindWatchdog
	// KindMaxCycles: the RunOptions.MaxCycles bound was reached.
	KindMaxCycles
	// KindDeadline: the run's deadline (RunOptions.Deadline or the
	// context's) passed before the program halted.
	KindDeadline
	// KindCanceled: the run's context was cancelled.
	KindCanceled
	// KindBudget: the legacy IPC safety budget (cycles greatly exceeding
	// committed instructions) was exhausted.
	KindBudget
	// KindPanic: an invariant-violation panic inside the simulator was
	// contained and converted into an error.
	KindPanic
)

func (k Kind) String() string {
	switch k {
	case KindWatchdog:
		return "watchdog"
	case KindMaxCycles:
		return "max-cycles"
	case KindDeadline:
		return "deadline"
	case KindCanceled:
		return "canceled"
	case KindBudget:
		return "cycle-budget"
	case KindPanic:
		return "panic"
	default:
		return fmt.Sprintf("kind%d", uint8(k))
	}
}

// EntryState describes one in-flight instruction (a ROB or stream-queue
// head) at snapshot time.
type EntryState struct {
	Seq  uint64 // program-order sequence number
	PC   uint32
	Text string // disassembly
	// IsLoad/IsStore are both false for non-memory instructions.
	IsLoad  bool
	IsStore bool
	// Stream is the memory stream the core believes the access occupies
	// (meaningful only for memory instructions).
	Stream       int
	AddrKnown    bool
	Addr         uint32
	Issued       bool
	Completed    bool
	DispatchedAt uint64
}

func (e *EntryState) describe() string {
	if e == nil {
		return "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d pc=%#x %q", e.Seq, e.PC, e.Text)
	if e.IsLoad || e.IsStore {
		fmt.Fprintf(&b, " stream=%d", e.Stream)
		if e.AddrKnown {
			fmt.Fprintf(&b, " addr=%#x", e.Addr)
		} else {
			b.WriteString(" addr=?")
		}
	}
	fmt.Fprintf(&b, " dispatched@%d issued=%v completed=%v",
		e.DispatchedAt, e.Issued, e.Completed)
	return b.String()
}

// StreamState is one memory stream's queue, port and combining-window
// state at snapshot time.
type StreamState struct {
	Name string
	Len  int // queued accesses
	Cap  int // architectural queue size
	// Ports is the stream's port count; PortsInUse how many the current
	// cycle had consumed when the snapshot was taken.
	Ports      int
	PortsInUse int
	// Combining-window state (CombineLeft == 0 means closed).
	CombineLeft  int
	CombineLine  uint32
	CombineGroup int
	Head         *EntryState
}

// Snapshot is the pipeline state captured when a run fails. All fields are
// plain data so the snapshot survives the death of the Core it came from.
type Snapshot struct {
	Cycle     uint64
	Committed uint64
	// LastCommitCycle is the cycle of the most recent commit (0 when
	// nothing ever committed).
	LastCommitCycle uint64
	ROBLen          int
	ROBCap          int
	ROBHead         *EntryState
	Streams         []StreamState
}

// String renders the full multi-line snapshot block.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d, committed %d (last commit @%d)\n",
		s.Cycle, s.Committed, s.LastCommitCycle)
	fmt.Fprintf(&b, "ROB %d/%d head: %s\n", s.ROBLen, s.ROBCap, s.ROBHead.describe())
	for _, st := range s.Streams {
		fmt.Fprintf(&b, "stream %-6s %d/%d queued, ports %d/%d",
			st.Name, st.Len, st.Cap, st.PortsInUse, st.Ports)
		if st.CombineLeft > 0 {
			fmt.Fprintf(&b, ", combining line=%#x left=%d group=%d",
				st.CombineLine, st.CombineLeft, st.CombineGroup)
		}
		fmt.Fprintf(&b, "\n  head: %s\n", st.Head.describe())
	}
	return b.String()
}

// SimError is the typed failure of one simulation run.
type SimError struct {
	Kind Kind
	// Reason is a one-line human summary of what tripped.
	Reason string
	// PanicValue and Stack are set for KindPanic: the recovered value and
	// the goroutine stack at the panic site.
	PanicValue any
	Stack      string
	// Snapshot is the pipeline state at the moment of failure.
	Snapshot Snapshot
	// Err is the underlying cause, if any (a context error, the legacy
	// budget sentinel); it is exposed through Unwrap for errors.Is/As.
	Err error
}

// Error renders a one-line summary: kind, reason, and where the pipeline
// stood. The full snapshot is available via e.Snapshot.String().
func (e *SimError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s: %s (cycle %d, %d committed",
		e.Kind, e.Reason, e.Snapshot.Cycle, e.Snapshot.Committed)
	if h := e.Snapshot.ROBHead; h != nil {
		fmt.Fprintf(&b, ", ROB head seq=%d pc=%#x", h.Seq, h.PC)
	}
	b.WriteString(")")
	return b.String()
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *SimError) Unwrap() error { return e.Err }

// Recovered converts a value recovered from a panic into the typed
// KindPanic error, capturing the stack of the recovering goroutine. Call
// it from the deferred function that called recover.
func Recovered(p any) *SimError {
	return &SimError{
		Kind:       KindPanic,
		Reason:     fmt.Sprint(p),
		PanicValue: p,
		Stack:      string(debug.Stack()),
	}
}
