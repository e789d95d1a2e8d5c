package vm

import (
	"repro/internal/ir"
)

// This file implements the block-compilation stage of predecode: every
// basic-block head (and every call return site) anchors a straight-line
// segment — the block body, extended across unconditional branches into a
// trace — that executes as ONE dispatch-loop round trip. Each constituent
// is flattened at compile time into a segOp micro-op with its operand
// fields pre-extracted (register numbers, immediates, pre-summed frame
// offsets), so the segment runner (runSegment) streams through a dense
// array instead of chasing 168-byte-stride PIns records, holds the frame's
// register file, pc and the cycle/step counters in locals across the body,
// and inlines the page-translation-cache hit paths of the hottest operand
// shapes; only control-flow joins, traps and uncompiled code return to
// dispatch. A trampoline at segment exit chains directly into the next
// segment (the target of a terminal branch, a callee entry, a return
// continuation) without surfacing to the dispatch loop at all, charging
// exactly the bookkeeping the loop would have.
//
// Block compilation is pure dispatch elimination: every constituent charges
// its own Cycles/Steps in original order, budget traps fire at the same
// step with the same pc, and the memory semantics are the handler bodies
// verbatim — so the golden Cycles/Steps tables and every trap outcome are
// bit-identical with PredecodeOptions.NoBlockCompile. The block
// differential suite pins this.
//
// Only anchor slots have their run handler replaced (by hSeg); every other
// slot keeps its own handler, which the dispatch loop runs when execution
// continues from the middle of a block (a trace cut short at segMaxOps).
//
// Config independence: a Code is shared by machines with different
// vm.Configs (NewShared), so segments never bake in SafeStack/SFI/
// SoftBound/cost decisions — those are read from the running machine, like
// the handlers they replace.

// segMaxOps caps a trace's constituent count so pathological single-block
// functions cannot inflate predecode output; a trace cut short simply falls
// back to the dispatch loop mid-block.
const segMaxOps = 256

// segOp kinds: the shape-specialized constituent executors runSegment
// inlines. Everything else runs through its handler (skGeneric).
const (
	skGeneric uint8 = iota
	skBinRR         // reg ⊗ reg
	skBinRC         // reg ⊗ const
	skMovR
	skMovC
	skGEPRR        // base reg + index reg (aux = scale, imm = offset)
	skGEPRC        // base reg + constant (imm = whole precomputed offset)
	skLoadRegW8    // plain word load, register address
	skLoadFrameW8  // plain word load, safe-eligible frame object
	skLoadFrameUW8 // plain word load, unsafe-stack frame object
	skStoreRegW8
	skStoreFrameW8
	skStoreFrameUW8
	skBr      // trace-extending unconditional branch (target is the next op)
	skCondBrR // terminal two-way branch on a register
	skCondBrX // trace-extending branch: fall-through arm is the next op,
	// taken arm exits the activation early (imm = taken, aux = fall-through)
	skRet      // terminal return (retFinish invoked directly)
	skCallPlan // register-convention direct call; mid-trace when the
	// callee's entry continuation is inlined into the trace

	// Merged pairs (mergePairs): the head executor runs both constituents —
	// charging each its own step, cycle and budget check — and skips the
	// second slot, halving loop and switch traffic on the hottest adjacent
	// shapes. The second segOp stays in place unmodified; the merged body
	// reads its fields directly.
	skPairCmpRCBrX  // reg-const compare feeding a trace-extending branch
	skPairCmpRCBr   // reg-const compare feeding a terminal branch
	skPairCmpRRBrX  // reg-reg compare feeding a trace-extending branch
	skPairBinRCCall // add/sub reg-const feeding a direct call
	skPairBinRCRet  // add/sub reg-const whose fresh result is returned
	skPairBinRRRet  // add/sub reg-reg whose fresh result is returned
)

// segOp is one flattened constituent of a compiled segment. The hot kinds
// read only the pre-extracted fields; in and h serve the generic kind and
// the slow paths of the specialized ones.
type segOp struct {
	kind uint8
	alu  ir.ALU
	aReg int32 // A register / skRet value source / skCallPlan callee
	bReg int32 // B register (-1: imm; -2: slow operand via in) / skCallPlan plan index
	dst  int32
	imm  uint64 // immediate / pre-summed frame offset / branch target / site ordinal
	aux  uint64 // GEP scale / CondBr fallthrough target
	in   *PIns
	h    handler
}

// segRef locates one compiled straight-line trace inside FuncCode.SegOps;
// n == 0 means no segment is anchored at the slot.
type segRef struct {
	off, n int32
}

// makeSegOp flattens one slot into a micro-op, mirroring the shape dispatch
// of chooseHandler for the shapes runSegment inlines. The handler is
// re-resolved rather than read from in.run, which is already hSeg when the
// slot anchors a segment compiled earlier.
func makeSegOp(in *PIns) segOp {
	op := segOp{kind: skGeneric, in: in, h: chooseHandler(in, false)}
	switch in.Op {
	case ir.OpBin:
		if in.A.Kind == ir.ValReg {
			switch in.B.Kind {
			case ir.ValReg:
				op.kind, op.alu, op.aReg, op.bReg, op.dst = skBinRR, in.ALU, in.A.Reg, in.B.Reg, in.Dst
			case ir.ValConst:
				op.kind, op.alu, op.aReg, op.imm, op.dst = skBinRC, in.ALU, in.A.Reg, in.B.Imm, in.Dst
			}
		}
	case ir.OpMov:
		switch in.A.Kind {
		case ir.ValReg:
			op.kind, op.aReg, op.dst = skMovR, in.A.Reg, in.Dst
		case ir.ValConst:
			op.kind, op.imm, op.dst = skMovC, in.A.Imm, in.Dst
		}
	case ir.OpGEP:
		if in.A.Kind == ir.ValReg {
			switch in.B.Kind {
			case ir.ValReg:
				op.kind, op.aReg, op.bReg, op.dst = skGEPRR, in.A.Reg, in.B.Reg, in.Dst
				op.aux, op.imm = uint64(in.Scale), uint64(in.Off)
			case ir.ValConst:
				// The whole constant displacement folds at compile time.
				op.kind, op.aReg, op.dst = skGEPRC, in.A.Reg, in.Dst
				op.imm = in.B.Imm*uint64(in.Scale) + uint64(in.Off)
			}
		}
	case ir.OpLoad:
		if in.Flags&protMask == 0 && in.Size == 8 {
			switch in.A.Kind {
			case ir.ValReg:
				op.kind, op.aReg, op.dst = skLoadRegW8, in.A.Reg, in.Dst
			case ir.ValFrame:
				op.kind, op.dst = skLoadFrameW8, in.Dst
				op.imm = uint64(in.A.ObjOff) + in.A.Imm
				if in.A.Unsafe {
					op.kind = skLoadFrameUW8
				}
			}
		}
	case ir.OpStore:
		if in.Flags&protMask == 0 && in.Size == 8 {
			switch in.B.Kind {
			case ir.ValReg:
				op.bReg = in.B.Reg
			case ir.ValConst:
				op.bReg, op.imm = -1, in.B.Imm
			default:
				op.bReg = -2 // slow operand evaluation via in.B
			}
			switch in.A.Kind {
			case ir.ValReg:
				op.kind, op.aReg = skStoreRegW8, in.A.Reg
			case ir.ValFrame:
				// aux carries the frame displacement; imm may hold a
				// constant stored value.
				op.kind, op.aux = skStoreFrameW8, uint64(in.A.ObjOff)+in.A.Imm
				if in.A.Unsafe {
					op.kind = skStoreFrameUW8
				}
			default:
				op.bReg, op.imm = 0, 0 // stay generic
			}
		}
	case ir.OpCondBr:
		if in.A.Kind == ir.ValReg {
			op.kind, op.aReg = skCondBrR, in.A.Reg
			op.imm, op.aux = uint64(in.Targ0), uint64(in.Targ1)
		}
	case ir.OpRet:
		op.kind = skRet
		switch in.A.Kind {
		case ir.ValReg:
			op.aReg = in.A.Reg
		case ir.ValNone:
			op.aReg = -1
		default:
			op.aReg = -2 // slow operand evaluation via in.A
		}
	case ir.OpCall:
		if in.PlanIdx >= 0 {
			op.kind, op.aReg, op.bReg, op.dst = skCallPlan, in.Callee, in.PlanIdx, in.Dst
			op.imm = uint64(in.SiteOrd)
		}
	}
	return op
}

// compileBlocks installs segments for one function: one per block head and
// per call return site. Even single-op segments are kept — their terminal
// runs at dispatch-loop cost when entered from the loop, but they let the
// trampoline chain call/return/branch continuations without surfacing, so
// tight recursion never leaves the segment runner. Runs after fc.Ins is
// fully built (segOps hold pointers into it). Returns the number of segments
// installed. fc.Segs is always allocated — the trampoline indexes it for
// every function a run can enter.
func compileBlocks(c *Code, fc *FuncCode) int {
	n := len(fc.Ins)
	fc.Segs = make([]segRef, n)
	if n == 0 {
		return 0
	}
	entries := make([]int32, 0, len(fc.BlockPC)+8)
	entries = append(entries, fc.BlockPC...)
	for pc := range fc.Ins {
		switch fc.Ins[pc].Op {
		case ir.OpCall, ir.OpICall:
			if pc+1 < n {
				entries = append(entries, int32(pc+1))
			}
		}
	}
	count := 0
	for _, e := range entries {
		if fc.Segs[e].n != 0 {
			continue
		}
		ops := buildTrace(c, fc, int(e))
		mergePairs(ops)
		fc.Segs[e] = segRef{off: int32(len(fc.SegOps)), n: int32(len(ops))}
		fc.SegOps = append(fc.SegOps, ops...)
		fc.Ins[e].run = hSeg
		count++
	}
	return count
}

// mergePairs rewrites adjacent constituent shapes into merged pair kinds.
// Only never-faulting first constituents qualify (add/sub/compare), so a
// merged body has no mid-pair slow path; the compare pairs additionally
// require the branch to consume the freshly computed flag, and the return
// pairs the fresh result. A consumed second slot keeps its original segOp
// (the merged executor reads its fields and skips it).
func mergePairs(ops []segOp) {
	for j := 0; j+1 < len(ops); j++ {
		a, b := &ops[j], &ops[j+1]
		addSub := a.alu == ir.AAdd || a.alu == ir.ASub
		switch {
		case a.kind == skBinRC && isCmp(a.alu) && b.kind == skCondBrX && b.aReg == a.dst:
			a.kind = skPairCmpRCBrX
		case a.kind == skBinRC && isCmp(a.alu) && b.kind == skCondBrR && b.aReg == a.dst:
			a.kind = skPairCmpRCBr
		case a.kind == skBinRR && isCmp(a.alu) && b.kind == skCondBrX && b.aReg == a.dst:
			a.kind = skPairCmpRRBrX
		case a.kind == skBinRC && addSub && b.kind == skCallPlan:
			a.kind = skPairBinRCCall
		case a.kind == skBinRC && addSub && b.kind == skRet && b.aReg == a.dst:
			a.kind = skPairBinRCRet
		case a.kind == skBinRR && addSub && b.kind == skRet && b.aReg == a.dst:
			a.kind = skPairBinRRRet
		default:
			continue
		}
		j++ // the second slot is consumed by the merged head
	}
}

// buildTrace compiles the straight-line trace anchored at start. The trace
// extends across three kinds of control transfer as long as its target was
// not already visited (loops terminate the trace; re-entry goes through the
// target's own segment via the trampoline) and the op cap allows:
//
//   - unconditional branches (skBr), into the target block;
//   - conditional branches (skCondBrX), into the fall-through arm — the
//     taken arm exits the activation early and hops;
//   - register-convention direct calls (skCallPlan), into the callee's
//     entry block: every call path (fast or pushFrameReg) leaves the callee
//     current at pc 0, so the trace's remaining ops execute in the callee
//     frame and pc space — the runner refreshes its frame hoists mid-trace.
//
// Indirect calls and returns stay terminal: their continuations are
// dynamic, and the trampoline resolves them at runtime.
func buildTrace(c *Code, fc *FuncCode, start int) []segOp {
	type tkey struct {
		fc *FuncCode
		pc int32
	}
	ops := make([]segOp, 0, 8)
	visited := map[tkey]bool{{fc, int32(start)}: true}
	pc := start
	for len(ops) < segMaxOps {
		in := &fc.Ins[pc]
		op := makeSegOp(in)
		switch in.Op {
		case ir.OpICall, ir.OpRet:
			return append(ops, op)
		case ir.OpCall:
			ops = append(ops, op)
			if op.kind == skCallPlan && len(ops) < segMaxOps {
				if cf := &c.Funcs[in.Callee]; len(cf.Ins) > 0 && !visited[tkey{cf, 0}] {
					visited[tkey{cf, 0}] = true
					fc, pc = cf, 0
					continue
				}
			}
			return ops
		case ir.OpCondBr:
			if t := in.Targ1; op.kind == skCondBrR && len(ops)+1 < segMaxOps &&
				!visited[tkey{fc, t}] {
				visited[tkey{fc, t}] = true
				op.kind = skCondBrX
				ops = append(ops, op)
				pc = int(t)
				continue
			}
			return append(ops, op)
		case ir.OpBr:
			t := in.Targ0
			if visited[tkey{fc, t}] || len(ops)+1 >= segMaxOps {
				// Terminal branch: the handler redirects, then the
				// trampoline picks up the target's own segment without a
				// dispatch-loop round trip.
				op.kind = skGeneric
				return append(ops, op)
			}
			visited[tkey{fc, t}] = true
			op.kind, op.imm = skBr, uint64(t)
			ops = append(ops, op)
			pc = int(t)
		default:
			ops = append(ops, op)
			pc++
		}
	}
	return ops
}

// hSeg enters the segment anchored at the current pc — the handler
// installed on every segment entry slot.
func hSeg(m *Machine, f *frame, in *PIns) {
	m.runSegment(f)
}

// runSegment executes compiled segments until control leaves block-compiled
// code: it runs the entered segment's constituents back-to-back, then
// trampolines into whatever segment the terminal op's continuation enters
// (branch target, callee entry, return site), charging per trampoline hop
// exactly what a dispatch-loop round trip charges (one step, one dispatch,
// budget check first).
//
// Counter and mirror discipline: the pc and the step/cycle counters live
// in locals; the register file and metadata slices are hoisted per
// activation. Nothing outside budgetTrap and Run reads m.steps mid-run, so
// the step mirror is written back only at budget traps and at exit. The
// cycle delta is observable only by intrinsics and driver hooks — every
// other callee (the call/return machinery, the translation-cache miss
// paths) strictly ADDS to m.cycles, which commutes with the exit flush —
// so it is flushed only before generic handlers (which may be intrinsic
// calls) and hook runs. The pc is read by handlers and trap messages, so
// it is flushed before every call that can trap or advance it, and
// reloaded afterwards when the callee advances it; the post-loop mirror
// store is therefore always a no-op or the one live flush a truncated
// trace needs. The entry constituent's step and dispatch were already
// charged by the dispatch loop (or by the trampoline hop), so ticks start
// at the second constituent — a budget miss therefore reports the next
// instruction's position, exactly like the dispatch loop.
//
// Metadata elision (tm): register metadata is behaviorally dead unless some
// consumer is armed — the CPI/CPS/SoftBound checks, the safe store
// (SafeStack), fortifyLimit, CFI, pointer mangling, the temporal-safety
// sweep, the dual-store and audit oracles, or a driver hook (which can
// observe anything). When none is, the segment executors skip every
// meta read and write; slow-path fallbacks then see invalidMeta, which is
// what plain operations produce anyway. Configurations with any consumer
// armed keep full metadata maintenance, bit-identical to the handlers.
func (m *Machine) runSegment(f *frame) {
	cost := &m.cfg.Cost
	safeStack := m.cfg.SafeStack
	sfi := m.cfg.Isolation == IsoSFI
	softBound := m.cfg.SoftBound
	tm := safeStack || softBound || m.cfg.CPI || m.cfg.CPS || m.cfg.CFI ||
		m.cfg.Backend != "" || m.cfg.Fortify || m.cfg.PtrMangle ||
		m.cfg.TemporalSafety || m.cfg.DebugDualStore ||
		m.cfg.AuditSensitive || m.hooks != nil
	budget := m.stepBudget
	steps0 := m.steps
	steps := steps0
	var cyc int64
	var entries int64
	sr := f.code.Segs[f.pc]
	// Per-frame hoists, refreshed by the trampoline only when the
	// continuation actually switches frames (mid-trace constituents can
	// trap, but only terminals transfer between frames).
	pool := f.code.SegOps
	regs, meta := f.regs, f.meta
	segs := f.code.Segs

activation:
	for {
		entries++
		ops := pool[sr.off : sr.off+sr.n]
		pc := f.pc
		// The entry constituent's step was already charged by whoever
		// entered (dispatch loop or trampoline hop, budget-checked there),
		// so bias the counter down once and tick uniformly: the first tick
		// restores the balance and its budget check can never fire.
		steps--
	body:
		for i := 0; i < len(ops); i++ {
			op := &ops[i]
			steps++
			if steps > budget {
				f.pc = pc
				m.steps = steps
				m.budgetTrap()
				break activation
			}
			switch op.kind {
			case skBinRR, skBinRC:
				a := regs[op.aReg]
				var b uint64
				if op.kind == skBinRC {
					b = op.imm
				} else {
					b = regs[op.bReg]
				}
				var v uint64
				switch op.alu {
				case ir.AAdd:
					v = a + b
				case ir.ASub:
					v = a - b
				case ir.ALt, ir.AGt, ir.ALe, ir.AGe, ir.AEq, ir.ANe:
					v = cmpEval(op.alu, a, b)
				default:
					f.pc = pc // div-zero traps at this op's position
					var ok bool
					if v, ok = m.binEval(op.alu, a, b); !ok {
						break activation
					}
				}
				regs[op.dst] = v
				if tm {
					meta[op.dst] = invalidMeta
				}
				cyc += cost.Bin
				pc++

			case skMovR:
				regs[op.dst] = regs[op.aReg]
				if tm {
					meta[op.dst] = meta[op.aReg]
				}
				cyc += cost.Mov
				pc++

			case skMovC:
				regs[op.dst] = op.imm
				if tm {
					meta[op.dst] = invalidMeta
				}
				cyc += cost.Mov
				pc++

			case skGEPRR:
				regs[op.dst] = regs[op.aReg] + regs[op.bReg]*op.aux + op.imm
				if tm {
					meta[op.dst] = meta[op.aReg]
				}
				cyc += cost.GEP
				if softBound {
					cyc += cost.SBGEP
				}
				pc++

			case skGEPRC:
				regs[op.dst] = regs[op.aReg] + op.imm
				if tm {
					meta[op.dst] = meta[op.aReg]
				}
				cyc += cost.GEP
				if softBound {
					cyc += cost.SBGEP
				}
				pc++

			case skLoadRegW8:
				addr := regs[op.aReg]
				if v, ok := m.mem.TryLoadWord(addr); ok {
					cyc += cost.Load
					regs[op.dst] = v
					if tm {
						meta[op.dst] = invalidMeta
					}
					pc++
					break
				}
				f.pc = pc
				m.loadPlainInto(f, addr, false, op.dst, 8)
				if m.trap != nil {
					break activation
				}
				pc = f.pc

			case skLoadFrameW8:
				addr := f.safeBase + op.imm
				if !safeStack {
					if v, ok := m.mem.TryLoadWord(addr); ok {
						cyc += cost.Load
						regs[op.dst] = v
						if tm {
							meta[op.dst] = invalidMeta
						}
						pc++
						break
					}
				} else if v, ok := m.safe.TryLoadWord(addr); ok {
					cyc += cost.Load
					regs[op.dst] = v
					meta[op.dst] = m.safeMetaAt(addr)
					pc++
					break
				}
				f.pc = pc
				m.loadPlainInto(f, addr, safeStack, op.dst, 8)
				if m.trap != nil {
					break activation
				}
				pc = f.pc

			case skLoadFrameUW8:
				addr := f.regBase + op.imm
				if v, ok := m.mem.TryLoadWord(addr); ok {
					cyc += cost.Load
					regs[op.dst] = v
					if tm {
						meta[op.dst] = invalidMeta
					}
					pc++
					break
				}
				f.pc = pc
				m.loadPlainInto(f, addr, false, op.dst, 8)
				if m.trap != nil {
					break activation
				}
				pc = f.pc

			case skStoreRegW8:
				addr := regs[op.aReg]
				var val uint64
				switch {
				case op.bReg >= 0:
					val = regs[op.bReg]
				case op.bReg == -1:
					val = op.imm
				default:
					val = m.evalUSlow(f, &op.in.B)
				}
				if sfi {
					cyc += cost.SFIMask
				}
				if m.mem.TryStoreWord(addr, val) {
					cyc += cost.Store
					pc++
					break
				}
				f.pc = pc
				m.storePlainSlow(f, addr, false, val, invalidMeta, 8)
				if m.trap != nil {
					break activation
				}
				pc = f.pc

			case skStoreFrameW8:
				addr := f.safeBase + op.aux
				var val uint64
				valMeta := invalidMeta
				if op.bReg >= 0 {
					val = regs[op.bReg]
					if tm {
						valMeta = meta[op.bReg]
					}
				} else {
					val, valMeta = m.evalValSlow(f, &op.in.B)
				}
				if !safeStack {
					if sfi {
						cyc += cost.SFIMask
					}
					if m.mem.TryStoreWord(addr, val) {
						cyc += cost.Store
						pc++
						break
					}
				} else if m.safe.TryStoreWord(addr, val) {
					m.setSafeMeta(addr, valMeta)
					cyc += cost.Store
					pc++
					break
				}
				f.pc = pc
				m.storePlainSlow(f, addr, safeStack, val, valMeta, 8)
				if m.trap != nil {
					break activation
				}
				pc = f.pc

			case skStoreFrameUW8:
				addr := f.regBase + op.aux
				var val uint64
				valMeta := invalidMeta
				if op.bReg >= 0 {
					val = regs[op.bReg]
					if tm {
						valMeta = meta[op.bReg]
					}
				} else {
					val, valMeta = m.evalValSlow(f, &op.in.B)
				}
				if sfi {
					cyc += cost.SFIMask
				}
				if m.mem.TryStoreWord(addr, val) {
					cyc += cost.Store
					pc++
					break
				}
				f.pc = pc
				m.storePlainSlow(f, addr, false, val, valMeta, 8)
				if m.trap != nil {
					break activation
				}
				pc = f.pc

			case skBr:
				// Trace-extending branch: the next segOp IS the target.
				pc = int(op.imm)
				cyc += cost.Br

			case skCondBrR: // terminal
				if regs[op.aReg] != 0 {
					pc = int(op.imm)
				} else {
					pc = int(op.aux)
				}
				cyc += cost.CondBr

			case skCondBrX: // trace-extending: the fall-through arm is the
				// next op; the taken arm leaves the activation early and
				// lets the trampoline chain into the target's own segment.
				cyc += cost.CondBr
				if regs[op.aReg] != 0 {
					pc = int(op.imm)
					break body
				}
				pc = int(op.aux)

			case skRet: // terminal; segRet inlines retFinish+popFrame for
				// the common return shape and falls back to retFinish
				// otherwise. Outlined so the segment loop's register
				// allocation stays lean.
				f.pc = pc
				cyc = m.segRet(f, op, tm, cyc)
				if m.trap != nil {
					break activation
				}

			case skCallPlan: // segCall mirrors execCallPlan with the
				// recycled-frame push inlined, falling back to pushFrameReg
				// for every other shape. Outlined like segRet. Mid-trace
				// when the callee's entry continuation is inlined: every
				// push path leaves the callee frame current at pc 0, so the
				// remaining ops execute there after a frame-hoist refresh.
				f.pc = pc
				cyc = m.segCall(f, op, pc, tm, cyc)
				if m.trap != nil {
					break activation
				}
				if i+1 < len(ops) {
					f = m.cur
					regs, meta = f.regs, f.meta
					segs = f.code.Segs
					pool = f.code.SegOps
					pc = f.pc
				}

			case skPairCmpRCBrX, skPairCmpRCBr, skPairCmpRRBrX:
				// Compare + branch on the fresh flag. Each constituent
				// charges its own step, cycle and budget check.
				var b uint64
				if op.kind == skPairCmpRRBrX {
					b = regs[op.bReg]
				} else {
					b = op.imm
				}
				v := cmpEval(op.alu, regs[op.aReg], b)
				regs[op.dst] = v
				if tm {
					meta[op.dst] = invalidMeta
				}
				cyc += cost.Bin
				pc++
				steps++
				if steps > budget {
					f.pc = pc
					m.steps = steps
					m.budgetTrap()
					break activation
				}
				op2 := &ops[i+1]
				i++
				cyc += cost.CondBr
				if op.kind == skPairCmpRCBr { // terminal two-way branch
					if v != 0 {
						pc = int(op2.imm)
					} else {
						pc = int(op2.aux)
					}
					break
				}
				if v != 0 { // trace-extending: taken arm exits early
					pc = int(op2.imm)
					break body
				}
				pc = int(op2.aux)

			case skPairBinRCCall:
				a := regs[op.aReg]
				var v uint64
				if op.alu == ir.AAdd {
					v = a + op.imm
				} else {
					v = a - op.imm
				}
				regs[op.dst] = v
				if tm {
					meta[op.dst] = invalidMeta
				}
				cyc += cost.Bin
				pc++
				steps++
				if steps > budget {
					f.pc = pc
					m.steps = steps
					m.budgetTrap()
					break activation
				}
				op2 := &ops[i+1]
				i++
				f.pc = pc
				cyc = m.segCall(f, op2, pc, tm, cyc)
				if m.trap != nil {
					break activation
				}
				if i+1 < len(ops) {
					f = m.cur
					regs, meta = f.regs, f.meta
					segs = f.code.Segs
					pool = f.code.SegOps
					pc = f.pc
				}

			case skPairBinRCRet, skPairBinRRRet:
				a := regs[op.aReg]
				var b uint64
				if op.kind == skPairBinRRRet {
					b = regs[op.bReg]
				} else {
					b = op.imm
				}
				var v uint64
				if op.alu == ir.AAdd {
					v = a + b
				} else {
					v = a - b
				}
				regs[op.dst] = v
				if tm {
					meta[op.dst] = invalidMeta
				}
				cyc += cost.Bin
				pc++
				steps++
				if steps > budget {
					f.pc = pc
					m.steps = steps
					m.budgetTrap()
					break activation
				}
				op2 := &ops[i+1]
				i++
				f.pc = pc
				cyc = m.segRet(f, op2, tm, cyc)
				if m.trap != nil {
					break activation
				}

			default: // skGeneric: the slot's handler, flushed around
				f.pc = pc
				m.cycles += cyc
				cyc = 0
				op.h(m, f, op.in)
				if m.trap != nil {
					break activation
				}
				pc = f.pc
			}
		}
		// The mirror is already in sync for every terminal (no-op store)
		// and live only for traces truncated at segMaxOps.
		f.pc = pc

		// Trampoline: if the continuation lands on a segment entry, chain
		// into it directly, charging what one dispatch-loop round trip
		// would (step, dispatch, budget check). Same-frame continuations
		// (branch terminals) reuse the hoisted segment table.
		if cur := m.cur; cur == f {
			sr = segs[pc]
		} else {
			f = cur
			pool = f.code.SegOps
			regs, meta = f.regs, f.meta
			segs = f.code.Segs
			sr = segs[f.pc]
		}
		if sr.n == 0 {
			break
		}
		steps++
		if steps > budget {
			m.steps = steps
			// The trapped hop's dispatch is real but its step is not a
			// block constituent; keep the exit accounting's invariants.
			m.extraDisp++
			steps0++
			m.budgetTrap()
			break
		}
	}

	// Every activation after the first arrived via a trampoline hop; each
	// hop paid one step that is not an executed block constituent.
	m.steps = steps
	m.cycles += cyc
	m.blockEntries += entries
	m.blockSteps += (steps - steps0) + 1
	m.extraDisp += entries - 1
}

// segRet executes a skRet terminal: the fast path inlines retFinish+popFrame
// for the common return shape (no canary, expected return address in place,
// no shadow metadata to clear, not the final frame); anything else falls
// through to retFinish before any state or cost mutation. retFinish only
// adds to m.cycles, so the local cycle delta rides through either way. The
// caller has already flushed f.pc.
func (m *Machine) segRet(f *frame, op *segOp, tm bool, cyc int64) int64 {
	var rv uint64
	rm := invalidMeta
	switch {
	case op.aReg >= 0:
		rv = f.regs[op.aReg]
		if tm {
			rm = f.meta[op.aReg]
		}
	case op.aReg == -2:
		rv, rm = m.evalValSlow(f, &op.in.A)
	}
	if nf := len(m.frames) - 1; f.canaryAddr == 0 && nf > 0 &&
		(f.safeSize == 0 || (len(m.safeMetaW) == 0 && len(m.safeMetaU) == 0)) {
		var retWord uint64
		var hit bool
		if f.retOnSafe {
			retWord, hit = m.safe.TryLoadWord(f.retSlot)
		} else {
			retWord, hit = m.mem.TryLoadWord(f.retSlot)
		}
		if hit && retWord == f.retAddr {
			cyc += m.cfg.Cost.Ret + m.cfg.Cost.Load
			m.sp += f.regSize
			m.ssp += f.safeSize
			m.frames = m.frames[:nf]
			caller := m.frames[nf-1]
			m.cur = caller
			caller.pc = f.retPC
			if d := f.dst; d >= 0 {
				caller.regs[d] = rv
				if tm {
					caller.meta[d] = rm
				}
			}
			return cyc
		}
	}
	m.retFinish(f, rv, rm)
	return cyc
}

// segCall executes a skCallPlan terminal, mirroring execCallPlan. The fast
// path inlines newFrame's recycled-record reuse (re-pointing records that
// last held a different function; initFrame is idempotent, so a fallback
// below still recycles correctly) and finishPush for cookie-less frames; any
// other shape falls through to pushFrameReg before any state mutation. The
// caller has already flushed f.pc.
func (m *Machine) segCall(f *frame, op *segOp, pc int, tm bool, cyc int64) int64 {
	if m.hooks != nil {
		m.cycles += cyc // hooks may observe Cycles()
		cyc = 0
		m.runHook(int(op.aReg))
		if m.trap != nil {
			return cyc
		}
	}
	cost := &m.cfg.Cost
	cyc += cost.Call
	callee := int(op.aReg)
	retAddr := m.retSiteAddr(int32(op.imm))
	n := len(m.frames)
	var f2 *frame
	var info *frameInfo
	if n < m.cfg.MaxCallDepth && n < cap(m.frames) {
		if c2 := m.frames[:cap(m.frames)][n]; c2 != nil {
			if c2.fidx == callee {
				if !c2.code.NeedsRegClear {
					f2 = c2
				}
			} else {
				f2 = m.initFrame(c2, callee)
			}
			if f2 != nil {
				info = &m.finfo[callee]
				if info.cookie || f2.fn.NeedsUnsafeFrame {
					f2 = nil
				}
			}
		}
	}
	if f2 == nil {
		m.pushFrameReg(callee, f, f.code.Plans[op.bReg],
			retAddr, pc+1, int(op.dst))
		return cyc
	}
	f2.pc = 0
	f2.retPC = pc + 1
	f2.dst = int(op.dst)
	plan := f.code.Plans[op.bReg]
	if len(plan) > 0 {
		cyc += int64(len(plan)) * cost.Arg
		regs, meta := f.regs, f.meta
		regs2 := f2.regs
		if tm {
			meta2 := f2.meta
			for i := range plan {
				if a := &plan[i]; a.Reg >= 0 {
					regs2[i] = regs[a.Reg]
					meta2[i] = meta[a.Reg]
				} else {
					regs2[i] = a.Imm
					meta2[i] = invalidMeta
				}
			}
		} else {
			for i := range plan {
				if a := &plan[i]; a.Reg >= 0 {
					regs2[i] = regs[a.Reg]
				} else {
					regs2[i] = a.Imm
				}
			}
		}
	}
	f2.canaryAddr = 0
	rt := info.regularTotal
	if rt > 0 {
		if m.sp < m.stackFloor+rt {
			m.trapf(TrapStackOverflow, m.sp, ViaNone, "regular stack exhausted")
			return cyc
		}
		m.sp -= rt
	}
	f2.regBase = m.sp
	if info.safeTotal > 0 {
		if m.ssp < uint64(safeStackTop)-stackMax+info.safeTotal {
			m.trapf(TrapStackOverflow, m.ssp, ViaNone, "safe stack exhausted")
			return cyc
		}
		m.ssp -= info.safeTotal
	}
	f2.safeBase = m.ssp
	f2.regSize = rt
	f2.safeSize = info.safeTotal
	f2.retAddr = retAddr
	f2.retOnSafe = info.retOnSafe
	if info.retOnSafe {
		f2.retSlot = f2.safeBase + uint64(f2.fn.SafeSize)
		if !m.safe.TryStoreWord(f2.retSlot, retAddr) {
			if err := m.safe.Store(f2.retSlot, 8, retAddr); err != nil {
				m.memFault(err)
				return cyc
			}
		}
	} else {
		f2.retSlot = f2.regBase + info.objBytes
		if !m.mem.TryStoreWord(f2.retSlot, retAddr) {
			if err := m.mem.Store(f2.retSlot, 8, retAddr); err != nil {
				m.memFault(err)
				return cyc
			}
		}
	}
	if !m.cfg.SafeStack {
		f2.safeBase = f2.regBase
	}
	m.frames = m.frames[:n+1]
	m.cur = f2
	if m.sp < m.minSp {
		m.minSp = m.sp
	}
	if m.ssp < m.minSsp {
		m.minSsp = m.ssp
	}
	if m.spsDirty {
		m.sampleSPSPeaks()
	}
	return cyc
}

// isCmp reports whether the operator is one of the comparison ALU ops
// (results are 0/1 and can never fault).
func isCmp(op ir.ALU) bool {
	switch op {
	case ir.ALt, ir.AGt, ir.ALe, ir.AGe, ir.AEq, ir.ANe:
		return true
	}
	return false
}

// cmpEval evaluates a comparison operator (callers guarantee isCmp).
func cmpEval(op ir.ALU, ua, ub uint64) uint64 {
	a, b := int64(ua), int64(ub)
	var c bool
	switch op {
	case ir.ALt:
		c = a < b
	case ir.AGt:
		c = a > b
	case ir.ALe:
		c = a <= b
	case ir.AGe:
		c = a >= b
	case ir.AEq:
		c = ua == ub
	default: // ir.ANe
		c = ua != ub
	}
	if c {
		return 1
	}
	return 0
}

// binEval is aluEval with the two overwhelmingly common (and never-
// faulting) operators peeled off before the call.
func (m *Machine) binEval(op ir.ALU, a, b uint64) (uint64, bool) {
	switch op {
	case ir.AAdd:
		return a + b, true
	case ir.ASub:
		return a - b, true
	}
	v, err := aluEval(op, a, b)
	if err != nil {
		m.trapf(TrapDivZero, 0, ViaNone, "division by zero")
		return 0, false
	}
	return v, true
}

// budgetTrap raises the step-budget trap at the current step count: the
// segment runner's cold path, kept out of line so its hot loop stays small.
func (m *Machine) budgetTrap() {
	m.trapf(TrapMaxSteps, 0, ViaNone, "after %d steps", m.steps)
}
