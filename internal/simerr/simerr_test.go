package simerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindUnknown:   "kind0",
		KindWatchdog:  "watchdog",
		KindMaxCycles: "max-cycles",
		KindDeadline:  "deadline",
		KindCanceled:  "canceled",
		KindBudget:    "cycle-budget",
		KindPanic:     "panic",
		Kind(200):     "kind200",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestErrorSummary(t *testing.T) {
	e := &SimError{
		Kind:   KindWatchdog,
		Reason: "no instruction committed for 16 cycles",
		Snapshot: Snapshot{
			Cycle: 120, Committed: 40,
			ROBHead: &EntryState{Seq: 41, PC: 0x400010},
		},
	}
	want := "sim: watchdog: no instruction committed for 16 cycles (cycle 120, 40 committed, ROB head seq=41 pc=0x400010)"
	if got := e.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	e.Snapshot.ROBHead = nil
	want = "sim: watchdog: no instruction committed for 16 cycles (cycle 120, 40 committed)"
	if got := e.Error(); got != want {
		t.Errorf("Error() with empty ROB = %q, want %q", got, want)
	}
}

func TestUnwrapAndAs(t *testing.T) {
	se := &SimError{Kind: KindDeadline, Reason: "deadline exceeded", Err: context.DeadlineExceeded}
	if se.Unwrap() != context.DeadlineExceeded {
		t.Fatalf("Unwrap() = %v", se.Unwrap())
	}
	wrapped := fmt.Errorf("experiments: li under (2+0): %w", se)
	if !errors.Is(wrapped, context.DeadlineExceeded) {
		t.Error("errors.Is does not reach the cause through a wrapped SimError")
	}
	var got *SimError
	if !errors.As(wrapped, &got) || got != se {
		t.Fatalf("errors.As = %v, %v", got, got == se)
	}
	if got.Kind != KindDeadline {
		t.Errorf("Kind = %v", got.Kind)
	}
	if (&SimError{Kind: KindPanic}).Unwrap() != nil {
		t.Error("Unwrap of a causeless error is not nil")
	}
}

func TestSnapshotStringEmpty(t *testing.T) {
	want := "cycle 0, committed 0 (last commit @0)\nROB 0/0 head: -\n"
	if got := (Snapshot{}).String(); got != want {
		t.Errorf("empty snapshot:\n%q\nwant\n%q", got, want)
	}
}

func TestSnapshotStringPopulated(t *testing.T) {
	s := Snapshot{
		Cycle: 5000, Committed: 1200, LastCommitCycle: 4000,
		ROBLen: 3, ROBCap: 128,
		ROBHead: &EntryState{Seq: 1201, PC: 0x400100, Text: "add $t0, $t1, $t2", DispatchedAt: 3990},
		Streams: []StreamState{
			{
				Name: "LSQ", Len: 2, Cap: 32, Ports: 2, PortsInUse: 1,
				Head: &EntryState{
					Seq: 1202, PC: 0x400104, Text: "lw $t3, 0($gp)", IsLoad: true,
					AddrKnown: true, Addr: 0x10000000, Issued: true, DispatchedAt: 3991,
				},
			},
			{
				Name: "LVAQ", Len: 1, Cap: 32, Ports: 2, PortsInUse: 2,
				CombineLeft: 1, CombineLine: 0x7fff0000, CombineGroup: 3,
				Head: &EntryState{Seq: 1203, PC: 0x400108, Text: "sw $t3, 4($sp)", IsStore: true, Stream: 1},
			},
			{Name: "X", Cap: 8},
		},
	}
	want := strings.Join([]string{
		"cycle 5000, committed 1200 (last commit @4000)",
		`ROB 3/128 head: seq=1201 pc=0x400100 "add $t0, $t1, $t2" dispatched@3990 issued=false completed=false`,
		"stream LSQ    2/32 queued, ports 1/2",
		`  head: seq=1202 pc=0x400104 "lw $t3, 0($gp)" stream=0 addr=0x10000000 dispatched@3991 issued=true completed=false`,
		"stream LVAQ   1/32 queued, ports 2/2, combining line=0x7fff0000 left=1 group=3",
		`  head: seq=1203 pc=0x400108 "sw $t3, 4($sp)" stream=1 addr=? dispatched@0 issued=false completed=false`,
		"stream X      0/8 queued, ports 0/0",
		"  head: -",
		"",
	}, "\n")
	if got := s.String(); got != want {
		t.Errorf("populated snapshot:\n%s\nwant\n%s", got, want)
	}
}
