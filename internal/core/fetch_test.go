package core

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/emu"
)

// countdownSrc prints 40..1 and then runs off the end of the text segment:
// 121 instructions, then a fetch error.
const countdownSrc = `
	.text
	.global main
main:
	li   $t0, 40
loop:
	out  $t0
	addi $t0, $t0, -1
	bnez $t0, loop
`

// TestInstBudgetStopsEmulatorRunAhead: with an instruction budget the
// emulator must not fetch past what dispatch consumed, so its instruction
// count and the program output stop exactly at the budget.
func TestInstBudgetStopsEmulatorRunAhead(t *testing.T) {
	prog, err := asm.Assemble("countdown.s", countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []uint64{1, 7, 50, 100} {
		cfg := config.Default().WithPorts(2, 0)
		cfg.MaxInsts = budget
		c, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		ref := emu.New(prog)
		if _, err := ref.Run(budget); err != nil {
			t.Fatal(err)
		}
		if c.emu.InstCount != budget || res.Committed != budget {
			t.Errorf("budget %d: emulator ran %d, committed %d", budget, c.emu.InstCount, res.Committed)
		}
		if !reflect.DeepEqual(res.Output, ref.Output) {
			t.Errorf("budget %d: output %v, want %v", budget, res.Output, ref.Output)
		}
	}
}
