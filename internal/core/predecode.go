package core

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// fuPool names the functional-unit pool an instruction issues to.
type fuPool uint8

const (
	fuIntALU fuPool = iota // integer ALU, branches, jumps, sys, nop
	fuIntMulDiv
	fuFPALU
	fuFPMulDiv
	numFUPools
)

// decoded is the predecoded form of one text-segment instruction: every
// static fact dispatch, issue, commit and squash recovery need, derived
// once per program rather than from the opcode table on every visit.
type decoded struct {
	isMem, isLoad bool
	hasDest       bool
	dest          isa.Reg
	// src are the source registers in rename order (for a memory access
	// the base register, then a store's data register); nsrc counts them.
	// Reads of $zero are kept — the rename stage treats them as ready.
	src  [2]isa.Reg
	nsrc uint8
	fu   fuPool
	lat  uint64 // functional-unit latency (non-memory instructions)
}

// predecode builds the per-program table, indexed by text slot
// ((pc - TextBase) / InstBytes).
func predecode(text []isa.Inst) []decoded {
	tab := make([]decoded, len(text))
	for i, in := range text {
		d := &tab[i]
		class := in.Op.Info().Class
		d.dest, d.hasDest = in.Dest()
		switch class {
		case isa.ClassLoad, isa.ClassStore:
			d.isMem, d.isLoad = true, class == isa.ClassLoad
			d.src[0], d.nsrc = in.BaseReg(), 1
			if !d.isLoad {
				d.src[1], d.nsrc = in.Rt, 2
			}
		default:
			a, b, n := in.Srcs()
			d.src, d.nsrc = [2]isa.Reg{a, b}, uint8(n)
		}
		switch class {
		case isa.ClassIntMul, isa.ClassIntDiv:
			d.fu = fuIntMulDiv
		case isa.ClassFPALU:
			d.fu = fuFPALU
		case isa.ClassFPMul, isa.ClassFPDiv:
			d.fu = fuFPMulDiv
		default:
			d.fu = fuIntALU
		}
		d.lat = config.Latency(class)
	}
	return tab
}
