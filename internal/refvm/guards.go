package refvm

// The static half of the non-termination proof (see nonterm.go): a
// data-dependence pass over compiled bytecode. It simulates the operand
// stack abstractly, one value per stack entry recording the variable slots
// the value was computed from, and reports each function's conditional
// jumps, direct slot stores and address-taken slots. Slot identities are
// read from the varRefs table as it stands, so a patched template is
// analyzed for the variant currently bound into its holes — the same
// per-variant retargeting every other template fact gets.
//
// Slot keys name a variable slot independently of the frame: a local slot
// s is s, a global slot g is -1-g.

// absVal is the abstract value of one operand-stack entry.
type absVal struct {
	deps   []int32 // slot keys the value was computed from
	addr   int32   // when isAddr: the slot key this is the address of
	isAddr bool    // pushed by opAddrVar: a direct variable address
	taint  bool    // also depends on memory, a call result or printf
	lit    bool    // a string literal's address
}

// depFact is one conditional jump (key unused) or one direct store to
// slot key, with the slots its value was computed from.
type depFact struct {
	pc    int32
	key   int32
	deps  []int32
	taint bool
}

// fnFlow is the data-dependence summary of one function.
type fnFlow struct {
	branches []depFact
	stores   []depFact
	decls    []depFact // opAllocVar: pc and the declared local slot
	escaped  map[int32]bool
}

// width returns the number of code words of the instruction at pc: a
// superinstruction's absorbed second word is its operand, never executed.
func width(op uint8) int32 {
	switch op {
	case opLoadVarBinop, opConstBinop, opBinopJz, opBinopJnz, opConstStore:
		return 2
	}
	return 1
}

// succs appends the control-flow successors of the instruction at pc
// (calls continue at their return address).
func succs(code []instr, pc int32, dst []int32) []int32 {
	in := &code[pc]
	switch in.op {
	case opJmp:
		return append(dst, in.a)
	case opJz, opJnz:
		return append(dst, pc+1, in.a)
	case opBinopJz, opBinopJnz:
		return append(dst, pc+2, code[pc+1].a)
	case opStaticBegin, opPrintfBegin, opPrintfFeed:
		return append(dst, pc+1, in.b)
	case opRetVal, opRetNone, opGotoEscape, opAbort, opExit, opUB, opLimit, opPrintfNoArg, opHalt:
		return dst
	}
	return append(dst, pc+width(in.op))
}

func (p *program) slotKey(vi int32) int32 {
	vr := &p.varRefs[vi]
	if vr.global {
		return -1 - vr.slot
	}
	return vr.slot
}

func addDep(deps []int32, k int32) []int32 {
	for _, d := range deps {
		if d == k {
			return deps
		}
	}
	return append(deps, k)
}

func unionDeps(a, b []int32) []int32 {
	out := append([]int32(nil), a...)
	for _, k := range b {
		out = addDep(out, k)
	}
	return out
}

// flow runs the data-dependence pass over fn. It reports false when the
// operand stack's shape is not understood: heights that disagree where
// control flow merges, or a back-edge that does not land on an empty
// stack (the compiler only emits back-edges to statement boundaries).
func flow(p *program, fn *fnCode) (*fnFlow, bool) {
	code := fn.code
	n := int32(len(code))
	f := &fnFlow{escaped: make(map[int32]bool)}
	in := make([][]absVal, n+1)
	seen := make([]bool, n+1)
	var ss []int32
	// back-edge targets start at an empty stack
	for pc := int32(0); pc < n; pc += width(code[pc].op) {
		for _, s := range succs(code, pc, ss[:0]) {
			if s <= pc {
				seen[s] = true
			}
		}
	}
	escape := func(v absVal) {
		if v.isAddr {
			f.escaped[v.addr] = true
		}
	}
	// value strips a popped entry to the value it contributes: using a
	// variable's address as a value takes the address.
	value := func(v absVal) absVal {
		escape(v)
		return absVal{deps: v.deps, taint: v.taint}
	}
	ok := true
	merge := func(to int32, st []absVal) {
		if !seen[to] {
			seen[to] = true
			in[to] = append([]absVal(nil), st...)
			return
		}
		dst := in[to]
		if len(dst) != len(st) {
			ok = false
			return
		}
		for i := range dst {
			a, b := dst[i], st[i]
			if a.isAddr != b.isAddr || a.addr != b.addr {
				escape(a)
				escape(b)
				a.isAddr = false
			}
			a.deps = unionDeps(a.deps, b.deps)
			a.taint = a.taint || b.taint
			a.lit = a.lit && b.lit
			dst[i] = a
		}
	}
	var st []absVal
	var pc int32
	pop := func() absVal {
		if len(st) == 0 {
			ok = false
			return absVal{}
		}
		v := st[len(st)-1]
		st = st[:len(st)-1]
		return v
	}
	push := func(v absVal) { st = append(st, v) }
	branch := func(v absVal) {
		f.branches = append(f.branches, depFact{pc: pc, deps: v.deps, taint: v.taint || v.isAddr})
		escape(v)
	}
	store := func(target, v absVal) {
		if target.isAddr {
			f.stores = append(f.stores, depFact{pc: pc, key: target.addr, deps: v.deps, taint: v.taint})
		}
	}
	live := true // st holds the fall-through state into pc
	for pc < n && ok {
		ins := &code[pc]
		w := width(ins.op)
		switch {
		case seen[pc] && live:
			merge(pc, st)
			st = append(st[:0], in[pc]...)
		case seen[pc]:
			st = append(st[:0], in[pc]...)
			live = true
		case !live: // unreachable
			pc += w
			continue
		}
		// extra is pushed on arrival at a taken jump's target (printf's
		// byte count at its end label)
		var extra []absVal
		switch ins.op {
		case opStep, opCheckPtr, opStaticBind, opZeroFill, opZeroAll, opJmp, opCallMain, opHalt, opRetNone, opGotoEscape, opAbort, opUB, opLimit, opPrintfNoArg:
		case opConst:
			push(absVal{})
		case opStr:
			push(absVal{lit: true})
		case opLoadVar:
			k := p.slotKey(ins.a)
			if !scalarRef(p, ins.a) {
				// an aggregate loads as its storage address
				f.escaped[k] = true
			}
			push(absVal{deps: []int32{k}})
		case opAddrVar:
			k := p.slotKey(ins.a)
			push(absVal{deps: []int32{k}, addr: k, isAddr: true})
		case opLoadPtr, opLoadPtrKeep:
			ptr := pop()
			if ins.op == opLoadPtrKeep {
				push(ptr)
			}
			switch {
			case ins.b != 0: // aggregate: the storage pointer itself
				push(value(ptr))
			case ptr.isAddr:
				push(absVal{deps: []int32{ptr.addr}})
			default:
				push(absVal{taint: true})
			}
		case opIndexAddr, opBinop:
			y, x := value(pop()), value(pop())
			push(absVal{deps: unionDeps(x.deps, y.deps), taint: x.taint || y.taint})
		case opMemberAddr, opNot, opNeg, opBitNot, opConv, opBool, opConstBinop:
			push(value(pop()))
		case opLoadVarBinop:
			x := value(pop())
			push(absVal{deps: addDep(append([]int32(nil), x.deps...), p.slotKey(ins.a)), taint: x.taint})
		case opBinopJz, opBinopJnz:
			y, x := value(pop()), value(pop())
			branch(absVal{deps: unionDeps(x.deps, y.deps), taint: x.taint || y.taint})
		case opJz, opJnz:
			branch(pop())
		case opPop, opInitCell, opRetVal:
			escape(pop())
		case opConstStore:
			store(pop(), absVal{})
			push(absVal{})
		case opStoreConv:
			v := value(pop())
			store(pop(), v)
			push(v)
		case opStructCopy:
			value(pop())
			push(value(pop()))
		case opIncDec:
			ptr := pop()
			if ptr.isAddr && ins.b&incAgg == 0 {
				v := absVal{deps: []int32{ptr.addr}}
				store(ptr, v)
				push(v)
			} else {
				escape(ptr)
				push(absVal{taint: true})
			}
		case opCallV, opCallD:
			for i := int32(0); i < ins.b; i++ {
				escape(pop())
			}
			if ins.op == opCallV {
				push(absVal{taint: true})
			}
		case opAllocVar:
			f.decls = append(f.decls, depFact{pc: pc, key: p.decls[ins.a].slot})
			if ins.b != 0 {
				push(absVal{})
			}
		case opAllocGlobal:
			if ins.b != 0 {
				push(absVal{})
			}
		case opStaticBegin:
			// initialized: jump past the initializer; else its pointer
			merge(ins.b, st)
			push(absVal{})
		case opPrintfBegin:
			format := pop()
			// the formatter's jumps follow the format string, fixed only
			// when it is a literal no other instruction can reach
			branch(absVal{taint: !format.lit || format.taint})
			extra = []absVal{{taint: true}}
		case opPrintfFeed:
			escape(pop())
			extra = []absVal{{taint: true}}
		case opExit:
			if ins.b != 0 {
				escape(pop())
			}
		default:
			ok = false
		}
		if !ok {
			break
		}
		live = false
		for _, s := range succs(code, pc, ss[:0]) {
			switch {
			case s == pc+w:
				live = true // falls through with st
			case s <= pc:
				if len(st) != 0 {
					ok = false
				}
			case ins.op == opStaticBegin:
				// merged above, before the pointer push
			default:
				merge(s, append(st[:len(st):len(st)], extra...))
			}
		}
		pc += w
	}
	return f, ok
}

// region returns the strongly connected region of fn's bytecode that
// contains h, by pc, or nil when h lies on no cycle.
func region(code []instr, h int32) []bool {
	n := int32(len(code))
	preds := make([][]int32, n+1)
	var ss []int32
	for pc := int32(0); pc < n; pc += width(code[pc].op) {
		for _, s := range succs(code, pc, ss[:0]) {
			preds[s] = append(preds[s], pc)
		}
	}
	fwd := make([]bool, n+1)
	work := succs(code, h, nil)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if fwd[pc] {
			continue
		}
		fwd[pc] = true
		work = succs(code, pc, work)
	}
	if !fwd[h] {
		return nil
	}
	in := make([]bool, n+1)
	work = append(work[:0], h)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if in[pc] || !fwd[pc] {
			continue
		}
		in[pc] = true
		work = append(work, preds[pc]...)
	}
	return in
}

// regionGuards computes R for the loop through h in fn (see nonterm.go),
// together with the region itself. It reports false when the region
// does not qualify for the proof.
func regionGuards(p *program, fn *fnCode, h int32) ([]int32, []bool, bool) {
	reg := region(fn.code, h)
	if reg == nil {
		return nil, nil, false
	}
	for pc, in := range reg {
		if !in {
			continue
		}
		switch fn.code[pc].op {
		case opCallV, opCallD, opCallMain, opStaticBegin, opStaticBind:
			return nil, nil, false
		}
	}
	ff, ok := flow(p, fn)
	if !ok {
		return nil, nil, false
	}
	var keys []int32
	inR := make(map[int32]bool)
	add := func(deps []int32) {
		for _, k := range deps {
			if !inR[k] {
				inR[k] = true
				keys = append(keys, k)
			}
		}
	}
	for _, b := range ff.branches {
		if reg[b.pc] {
			if b.taint {
				return nil, nil, false
			}
			add(b.deps)
		}
	}
	for grew := true; grew; {
		grew = false
		for _, s := range ff.stores {
			if !reg[s.pc] || !inR[s.key] {
				continue
			}
			if s.taint {
				return nil, nil, false
			}
			n := len(keys)
			add(s.deps)
			grew = grew || len(keys) > n
		}
	}
	for _, d := range ff.decls {
		if reg[d.pc] && inR[d.key] {
			return nil, nil, false // a fresh object every iteration
		}
	}
	for _, k := range keys {
		if ff.escaped[k] {
			return nil, nil, false
		}
	}
	// a global R slot must not have its address taken anywhere
	hasGlobal := false
	for _, k := range keys {
		hasGlobal = hasGlobal || k < 0
	}
	if hasGlobal {
		for _, g := range append(append([]*fnCode(nil), p.fns...), p.entry) {
			if g == fn {
				continue
			}
			gf, ok := flow(p, g)
			if !ok {
				return nil, nil, false
			}
			for _, k := range keys {
				if k < 0 && gf.escaped[k] {
					return nil, nil, false
				}
			}
		}
	}
	return keys, reg, true
}
