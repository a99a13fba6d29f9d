package refvm

import (
	"fmt"

	"spe/internal/interp"
)

// Non-termination proofs. Skeletal enumeration rebinds loop guards to
// variables the loop never changes (for (i = 0; n < 2; i++)), and such a
// variant would otherwise run out the whole step budget before the
// campaign can filter it. Once a run passes nonTermCheckpoint steps, the
// VM tries to prove that it is stuck instead:
//
//  1. It single-steps (every step-charging instruction traps into
//     nonTermPoll) until it takes a back-edge. The back-edge's target in
//     the current frame is H.
//  2. regionGuards statically takes the strongly connected region of the
//     current function's bytecode that contains H, and computes R: the
//     slots read by every conditional jump in the region, closed under
//     "add the operand slots of every store to an R slot". The proof
//     applies only when the region calls nothing (printf is inline
//     bytecode, not a call), initializes no static and declares no R
//     slot, every conditional jump and every store to an R slot is
//     computed from slots and constants alone (no memory load, call
//     result, printf byte count or non-literal format), and no R slot is
//     ever used other than as a directly loaded or stored scalar — its
//     address is never taken anywhere in the program, so bounds-checked
//     pointers can never write it.
//  3. It snapshots the R cells (object handle, init flag, value bits) at
//     this arrival at H and watches for the next one. If that arrival is
//     in the same frame with no call in between and every R cell is
//     identical, the run stops with a non-terminating Limit verdict.
//
// Why this is sound: from H, every branch the run takes depends only on R
// values, and every R value along the way is computed from R values at H
// (the closure). Identical R at two consecutive arrivals therefore means
// the same path forever. Exit, abort, return and goto-escape have no
// successors, so they never lie in the region; a branch to one reads
// only R slots and is never taken once R repeats. The run can thus only
// loop until its budget, or stop on undefined behavior or an output or
// step limit — never with a Defined() verdict. It may reach one of those
// stops later than the proof, so the verdict is a Limit marked NonTerm,
// and the equivalence contract (see cache.go) accepts it whenever the
// tree interpreter's full-budget result is not Defined either.
//
// The attempt is made once per run and abandoned (the run continues to its
// budget as before) when the region does not qualify, R changes between
// the two arrivals, the frame changes, a call happens, or a phase takes
// more than ntPollLimit polls. Below the checkpoint the VM executes
// exactly the instructions it always has: the checkpoint rides on the
// step-budget compare, and the watch's call trap on the depth compare.

// nonTermCheckpoint is the step count at which a run starts its proof
// attempt. Defined campaign variants finish in a few hundred steps, so
// nearly every run that gets this far is one that would exhaust the
// budget.
const nonTermCheckpoint = 5_000

// ntPollLimit bounds the polls (step-charging instructions) of each
// single-stepped phase: a loop iteration longer than this is not worth
// proving.
const ntPollLimit = 1 << 12

// proof phases
const (
	ntIdle  uint8 = iota // below the checkpoint
	ntSeek               // single-stepping until the next back-edge
	ntWatch              // single-stepping until the next arrival at H
	ntDone               // attempt over: the run continues to its budget
)

// ntState is the proof attempt's state: reset to ntIdle per run, and
// cleared when the attempt starts.
type ntState struct {
	phase  uint8
	polls  int
	fn     *fnCode
	depth  int
	pc     int32   // ntSeek: the previous poll's pc; ntWatch: H
	keys   []int32 // R as slot keys (see slotKey)
	region []bool  // by pc of fn: the strongly connected region of H
	snap   []ntCell
}

// ntCell is one R cell as seen at an arrival at H.
type ntCell struct {
	h    int32
	cell vCell
}

// stepTrap is the step check's slow path. It raises the budget verdict;
// between the checkpoint and the budget it drives the proof attempt.
func (vm *vmState) stepTrap(pc, pos int32) {
	if vm.steps > vm.cfg.MaxSteps {
		vm.limit("step budget exhausted at %s", vm.pos(pos))
	}
	vm.nonTermPoll(pc)
}

// callTrap is the call-depth check's slow path. It raises the depth
// verdict; during the watch any call abandons the attempt, since the path
// between the two arrivals at H must stay in one frame.
func (vm *vmState) callTrap(pos int32) {
	if len(vm.frames)-1 >= vm.cfg.MaxDepth {
		vm.limit("call depth exceeded at %s", vm.pos(pos))
	}
	vm.nonTermGiveUp()
}

// nonTermPoll advances the proof attempt at one step-charging
// instruction, pc, of the current frame.
func (vm *vmState) nonTermPoll(pc int32) {
	nt := &vm.nt
	fr := &vm.frames[len(vm.frames)-1]
	depth := len(vm.frames)
	sameFrame := fr.fn == nt.fn && depth == nt.depth
	switch nt.phase {
	case ntIdle:
		*nt = ntState{phase: ntSeek, snap: nt.snap[:0]}
		vm.stepLimit = -1 // every step-charging instruction polls
	case ntSeek:
		if sameFrame && pc <= nt.pc {
			// a back-edge was taken since the last poll: pc is H
			keys, region, ok := regionGuards(vm.p, fr.fn, pc)
			if !ok {
				vm.nonTermGiveUp()
				return
			}
			nt.phase, nt.polls, nt.pc, nt.keys, nt.region = ntWatch, 0, pc, keys, region
			nt.snap = vm.snapshotR(fr, nt.snap[:0])
			vm.depthLimit = -1 // every call traps
			return
		}
	case ntWatch:
		if !sameFrame || !nt.region[pc] {
			vm.nonTermGiveUp()
			return
		}
		if pc == nt.pc {
			if vm.sameR(fr) {
				panic(limitPanic{&interp.LimitError{
					Msg:     fmt.Sprintf("loop at %s makes no progress", vm.pos(fr.fn.code[pc].pos)),
					NonTerm: true,
				}})
			}
			vm.nonTermGiveUp()
			return
		}
	}
	nt.polls++
	if nt.polls > ntPollLimit {
		vm.nonTermGiveUp()
		return
	}
	if nt.phase == ntSeek {
		nt.fn, nt.depth, nt.pc = fr.fn, depth, pc
	}
}

// nonTermGiveUp ends the attempt: the run continues to its budget.
func (vm *vmState) nonTermGiveUp() {
	vm.nt.phase = ntDone
	vm.stepLimit = vm.cfg.MaxSteps
	vm.depthLimit = vm.cfg.MaxDepth
}

// rCell reads the R cell of slot key k in frame fr.
func (vm *vmState) rCell(fr *vframe, k int32) ntCell {
	var h int32
	if k < 0 {
		h = vm.globals[-1-k]
	} else {
		h = fr.locals[k]
	}
	if h == 0 || len(vm.objs[h].cells) == 0 {
		return ntCell{h: h}
	}
	return ntCell{h: h, cell: vm.objs[h].cells[0]}
}

func (vm *vmState) snapshotR(fr *vframe, dst []ntCell) []ntCell {
	for _, k := range vm.nt.keys {
		dst = append(dst, vm.rCell(fr, k))
	}
	return dst
}

// sameR compares the R cells against the snapshot: handle, init flag and
// value bits (so NaN equals itself and -0.0 differs from +0.0).
func (vm *vmState) sameR(fr *vframe) bool {
	for i, k := range vm.nt.keys {
		if vm.rCell(fr, k) != vm.nt.snap[i] {
			return false
		}
	}
	return true
}
