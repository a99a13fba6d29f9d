package minicc

// Superinstruction fusion over executable IR, mirroring the refvm oracle's
// PR 7 rework: the interpreter's per-instruction dispatch overhead is paid
// once per fused pair instead of once per instruction. Fusion is strictly
// in place — it rewrites the first instruction's Op field to a fused opcode
// and leaves the second instruction in the stream — so instruction indices
// never move: hole→IR patch sites recorded in template coordinates, trace
// replay offsets, and seeded-crash callsites all stay valid, and patched
// operand registers are still read live when a fused pair executes.
//
// Fused patterns (greedy, left to right, a consumed instruction never
// starts another pair):
//
//	OpConst + OpBin    → OpConstBin
//	OpLoad  + OpBin    → OpLoadBin
//	OpConst + OpStore  → OpConstStore
//	trailing comparison OpBin whose Dst is the block's TermBr condition
//	                   → OpCmpBr (single instruction; primes the branch)
//
// Control-flow landing points need no special handling in this IR: jumps
// only ever target block starts, so no branch can land between the two
// halves of a fused pair. The one cross-instruction coupling is OpCmpBr,
// whose win depends on Dst == Term.Cond; template building skips it in
// blocks where a hole patch site can rebind either side independently, and
// execInstrN additionally re-checks the identity live at execution time.

// fuseOp returns the fused opcode for an adjacent (a, b) pair, or OpArg
// (never a valid stream opcode here) when the pair does not fuse.
func fuseOp(a, b Op) Op {
	switch {
	case a == OpConst && b == OpBin:
		return OpConstBin
	case a == OpLoad && b == OpBin:
		return OpLoadBin
	case a == OpConst && b == OpStore:
		return OpConstStore
	}
	return OpArg
}

// isCmpOp reports whether a BinOp is a comparison (produces 0/1).
func isCmpOp(op string) bool {
	switch op {
	case "==", "!=", "<", ">", "<=", ">=":
		return true
	}
	return false
}

// fuseFunc fuses one function's blocks in place. noCmpBr, when non-nil,
// names blocks whose compare-branch fusion must be skipped because a hole
// patch site can rewrite the trailing comparison's Dst or the terminator's
// Cond independently (template coordinates; see buildTemplate).
func fuseFunc(f *Func, noCmpBr map[*Block]bool) {
	for _, b := range f.Blocks {
		ins := b.Instrs
		for i := 0; i < len(ins); i++ {
			if i+1 < len(ins) {
				if op := fuseOp(ins[i].Op, ins[i+1].Op); op != OpArg {
					ins[i].Op = op
					i++ // the second instruction is consumed by the pair
					continue
				}
			}
			if i == len(ins)-1 && ins[i].Op == OpBin && isCmpOp(ins[i].BinOp) &&
				b.Term.Kind == TermBr && ins[i].Dst == b.Term.Cond && !noCmpBr[b] {
				ins[i].Op = OpCmpBr
			}
		}
	}
}

// fuseProgram fuses every function of a program and marks it fused.
func fuseProgram(p *Program) {
	if p.fused {
		return
	}
	for _, f := range p.Funcs {
		fuseFunc(f, nil)
	}
	p.fused = true
}

// unfuseOp maps a fused opcode back to the base opcode of its first
// instruction; base opcodes map to themselves.
func unfuseOp(op Op) Op {
	switch op {
	case OpConstBin, OpConstStore:
		return OpConst
	case OpLoadBin:
		return OpLoad
	case OpCmpBr:
		return OpBin
	default:
		return op
	}
}

// unfuseProgram restores a fused program to plain opcodes (lossless: fusion
// only ever rewrites Op fields). The optimization passes predate fusion and
// run on unfused IR; the executor re-fuses lazily afterwards.
func unfuseProgram(p *Program) {
	if !p.fused {
		return
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				b.Instrs[i].Op = unfuseOp(b.Instrs[i].Op)
			}
		}
	}
	p.fused = false
}
