package minicc

// Dead code elimination, dead store elimination, CFG simplification,
// store-to-load forwarding with alias analysis, and loop-invariant code
// motion.

// dce removes pure instructions whose results are never used and performs
// in-block dead store elimination on direct variable stores. The seeded bug
// "dce-dead-store-call" ignores calls as barriers for dead-store
// elimination (a callee may observe a global through its own access).
func dce(f *Func, p *passCtx) {
	p.cov.Hit("dce.entry")
	deadStoreBug := p.bugs.Active("dce-dead-store-call")

	// mark: registers used anywhere (instruction operands + terminators)
	for changed := true; changed; {
		changed = false
		used := make(map[Reg]bool)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				for _, u := range b.Instrs[i].uses() {
					used[u] = true
				}
			}
			if b.Term.Kind == TermBr {
				used[b.Term.Cond] = true
			}
			if b.Term.Kind == TermRet && b.Term.HasVal {
				used[b.Term.Val] = true
			}
		}
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				in := b.Instrs[i]
				if in.pure() && in.Dst != NoReg && !used[in.Dst] {
					p.cov.Hit("dce.remove")
					changed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
	}

	// in-block dead store elimination on AddrVar-rooted stores
	for _, b := range f.Blocks {
		// addrSym[r] = symbol whose address r holds (possibly via offsets)
		addrSym := make(map[Reg]string)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == OpAddrVar {
				addrSym[in.Dst] = in.Sym.Name + "#" + itoa(in.Sym.ID)
			}
		}
		// scan forward: a store to symbol S is dead if the next access to S
		// in this block is another store with no interfering read/call
		// (bug: calls not treated as reads)
		type lastStore struct {
			idx int
			ok  bool
		}
		last := make(map[string]lastStore)
		dead := make(map[int]bool)
		clearAll := func() {
			for k := range last {
				delete(last, k)
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case OpStore:
				sym, known := addrSym[in.A]
				if !known {
					// store through an arbitrary pointer: could touch any
					// variable; forget all pending stores
					clearAll()
					continue
				}
				if ls, ok := last[sym]; ok && ls.ok {
					p.cov.Hit("dce.deadstore")
					dead[ls.idx] = true
				}
				last[sym] = lastStore{idx: i, ok: true}
			case OpLoad:
				if sym, known := addrSym[in.A]; known {
					delete(last, sym)
				} else {
					clearAll()
				}
			case OpCall:
				if !deadStoreBug {
					clearAll()
				}
			}
		}
		if len(dead) > 0 {
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				if dead[i] {
					continue
				}
				kept = append(kept, b.Instrs[i])
			}
			b.Instrs = kept
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// simplifyCFG drops unreachable blocks, threads empty jump blocks, and
// merges single-pred/single-succ chains.
func simplifyCFG(f *Func, p *passCtx) {
	p.cov.Hit("simplifycfg.entry")
	// thread empty jump-only blocks
	redirect := func(b *Block) *Block {
		seen := map[*Block]bool{}
		for b != nil && len(b.Instrs) == 0 && b.Term.Kind == TermJmp && !seen[b] {
			seen[b] = true
			p.cov.Hit("simplifycfg.thread")
			b = b.Term.To
		}
		return b
	}
	for _, b := range f.Blocks {
		switch b.Term.Kind {
		case TermJmp:
			b.Term.To = redirect(b.Term.To)
		case TermBr:
			b.Term.To = redirect(b.Term.To)
			b.Term.Else = redirect(b.Term.Else)
			if b.Term.To == b.Term.Else {
				b.Term = Term{Kind: TermJmp, To: b.Term.To, Pos: b.Term.Pos}
			}
		}
	}
	f.Entry = redirect(f.Entry)

	// drop unreachable blocks
	live := reachable(f)
	liveSet := make(map[*Block]bool, len(live))
	for _, b := range live {
		liveSet[b] = true
	}
	if len(live) != len(f.Blocks) {
		p.cov.Hit("simplifycfg.unreachable")
		kept := f.Blocks[:0]
		for _, b := range f.Blocks {
			if liveSet[b] {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
	}

	// merge b -> s when s has exactly one predecessor and b jumps to it
	pr := preds(f)
	merged := make(map[*Block]bool)
	snapshot := append([]*Block(nil), f.Blocks...)
	for _, b := range snapshot {
		if merged[b] {
			continue
		}
		for b.Term.Kind == TermJmp {
			s := b.Term.To
			if s == b || len(pr[s]) != 1 || s == f.Entry || merged[s] {
				break
			}
			p.bugs.MaybeCrash(p.cov, "simplifycfg-merge-label", func() bool {
				return len(s.Label) > 6 && s.Label[:6] == "label."
			})
			p.cov.Hit("simplifycfg.merge")
			b.Instrs = append(b.Instrs, s.Instrs...)
			b.Term = s.Term
			merged[s] = true
			for _, t := range b.Succs() {
				for i, q := range pr[t] {
					if q == s {
						pr[t][i] = b
					}
				}
			}
		}
	}
	if len(merged) > 0 {
		kept := f.Blocks[:0]
		for _, b := range f.Blocks {
			if !merged[b] {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
	}
	// renumber
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// aliasForward forwards direct variable stores to subsequent loads within a
// block. A store through an arbitrary pointer may alias any variable and
// must invalidate the forwarding table; the seeded bug "alias-store-forward"
// skips that invalidation — the model of the paper's Figure 2 bug (GCC
// 69951), where two names for the same storage defeat the alias analysis.
func aliasForward(f *Func, p *passCtx) {
	p.cov.Hit("alias.entry")
	buggy := p.bugs.Active("alias-store-forward")
	for _, b := range f.Blocks {
		addrSym := make(map[Reg]int) // reg -> symbol ID (direct AddrVar only)
		stored := make(map[int]Reg)  // symbol ID -> last stored value reg
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case OpAddrVar:
				addrSym[in.Dst] = in.Sym.ID
			case OpStore:
				if sid, ok := addrSym[in.A]; ok {
					stored[sid] = in.B
					continue
				}
				// store through a pointer: may alias anything
				if !buggy {
					p.cov.Hit("alias.clobber")
					stored = make(map[int]Reg)
				}
			case OpLoad:
				if sid, ok := addrSym[in.A]; ok {
					if v, okv := stored[sid]; okv {
						p.cov.Hit("alias.forward")
						*in = Instr{Op: OpCopy, Dst: in.Dst, A: v, Pos: in.Pos}
						continue
					}
				}
			case OpCall:
				// the callee may store to any variable
				stored = make(map[int]Reg)
				for k := range addrSym {
					_ = k
				}
			case OpAddrIdx:
				// derived pointers are not tracked; nothing to do
			default:
				if in.Dst != NoReg {
					// a redefined value register invalidates forwarding of
					// that register
					for sid, v := range stored {
						if v == in.Dst {
							delete(stored, sid)
						}
					}
					delete(addrSym, in.Dst)
				}
			}
		}
	}
}

// licm hoists loop-invariant pure computations into a preheader. Correct
// hoisting of potentially-trapping operations (division, modulo) requires
// the defining block to execute on every iteration (dominate all back-edge
// sources); the seeded bug "licm-hoist-conditional" skips that check.
func licm(f *Func, p *passCtx) {
	p.cov.Hit("licm.entry")
	hoistBug := p.bugs.Active("licm-hoist-conditional")
	loops := naturalLoops(f)
	if len(loops) == 0 {
		return
	}
	dom := dominators(f)
	pr := preds(f)

	// count definitions of each register across the function (non-SSA)
	defCount := make(map[Reg]int)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Dst; d != NoReg {
				defCount[d]++
			}
		}
	}

	for _, lp := range loops {
		p.cov.Hit("licm.loop")
		p.bugs.MaybeCrash(p.cov, "licm-crash-nested-loop", func() bool {
			// nested loop whose header is shared loop body: another loop's
			// header inside this loop's body
			for _, other := range loops {
				if other != lp && lp.body[other.header] && len(pr[other.header]) >= 3 {
					return true
				}
			}
			return false
		})
		// back-edge sources
		var latches []*Block
		for _, q := range pr[lp.header] {
			if lp.body[q] {
				latches = append(latches, q)
			}
		}
		// build / find the preheader: the unique predecessor outside the loop
		var outside []*Block
		for _, q := range pr[lp.header] {
			if !lp.body[q] {
				outside = append(outside, q)
			}
		}
		if len(outside) != 1 || outside[0].Term.Kind != TermJmp {
			continue // no convenient preheader; skip this loop
		}
		pre := outside[0]

		// registers defined inside the loop
		definedIn := make(map[Reg]bool)
		for b := range lp.body {
			for i := range b.Instrs {
				if d := b.Instrs[i].Dst; d != NoReg {
					definedIn[d] = true
				}
			}
		}
		hoisted := true
		for hoisted {
			hoisted = false
			// block order, not map order: the preheader's instruction
			// order must not vary from one compile to the next
			for _, b := range f.Blocks {
				if !lp.body[b] {
					continue
				}
				kept := b.Instrs[:0]
				for i := range b.Instrs {
					in := b.Instrs[i]
					canHoist := in.pure() && in.Dst != NoReg && defCount[in.Dst] == 1
					if canHoist {
						for _, u := range in.uses() {
							if definedIn[u] {
								canHoist = false
								break
							}
						}
					}
					if canHoist {
						trapping := in.Op == OpBin && (in.BinOp == "/" || in.BinOp == "%")
						if trapping && !hoistBug {
							// only hoist when b executes every iteration
							execEveryIter := true
							for _, latch := range latches {
								if !dom[latch][b] {
									execEveryIter = false
									break
								}
							}
							if !execEveryIter {
								canHoist = false
							}
						}
					}
					if canHoist {
						p.cov.Hit("licm.hoist")
						if in.Op == OpBin {
							p.cov.HitOp("licm.hoist", in.BinOp)
						}
						pre.Instrs = append(pre.Instrs, in)
						delete(definedIn, in.Dst)
						hoisted = true
						continue
					}
					kept = append(kept, in)
				}
				b.Instrs = kept
			}
		}
	}
}
