package vm

import (
	"repro/internal/ir"
	"repro/internal/sps"
)

// This file implements threaded handler dispatch: every predecoded
// instruction carries a handler function chosen once, at predecode time,
// from its opcode and its operand shapes. The per-step loop (Machine.Run)
// then performs a single indirect call per instruction — no opcode switch —
// and the hot handlers read register/constant operands directly, skipping
// the evalP kind-switch entirely.
//
// Handlers are machine-independent (they receive the Machine explicitly),
// so a predecoded Code remains shareable across concurrent machines.
//
// Every handler preserves the dispatch semantics and cost charging of the
// original step() switch exactly; the golden determinism tables pin this.

// handler executes one predecoded instruction (hSeg: one block-compiled
// segment; see blocks.go). It must leave f.pc at the next instruction to
// execute, or set m.trap.
type handler func(m *Machine, f *frame, in *PIns)

// chooseHandler resolves the handler for one predecoded instruction from
// its opcode and operand shapes. audit (PredecodeOptions.AuditHooks) forces
// loads/stores onto the general handlers so the AuditSensitive provenance
// checks in loadInto/storeFrom see every access.
func chooseHandler(in *PIns, audit bool) handler {
	switch in.Op {
	case ir.OpNop:
		return hNop
	case ir.OpBin:
		switch {
		case in.A.Kind == ir.ValReg && in.B.Kind == ir.ValReg:
			switch in.ALU {
			case ir.AAdd:
				return hAddRR
			case ir.ASub:
				return hSubRR
			}
			return hBinRR
		case in.A.Kind == ir.ValReg && in.B.Kind == ir.ValConst:
			switch in.ALU {
			case ir.AAdd:
				return hAddRC
			case ir.ASub:
				return hSubRC
			}
			return hBinRC
		}
		return hBinGen
	case ir.OpAddr:
		return hAddr
	case ir.OpMov:
		switch in.A.Kind {
		case ir.ValReg:
			return hMovR
		case ir.ValConst:
			return hMovC
		}
		return hMovGen
	case ir.OpGEP:
		if in.A.Kind == ir.ValReg {
			switch in.B.Kind {
			case ir.ValReg:
				return hGEPRR
			case ir.ValConst:
				return hGEPRC
			}
		}
		return hGEPGen
	case ir.OpCast:
		return hCast
	case ir.OpLoad:
		plain := in.Flags&protMask == 0 && !audit
		switch in.A.Kind {
		case ir.ValReg:
			if plain {
				if in.Size == 8 {
					return hLoadRegW8Plain
				}
				return hLoadRegPlain
			}
			return hLoadReg
		case ir.ValFrame:
			if plain {
				if in.Size == 8 {
					return hLoadFrameW8Plain
				}
				return hLoadFramePlain
			}
			return hLoadFrame
		}
		return hLoadGen
	case ir.OpStore:
		plain := in.Flags&protMask == 0 && !audit
		switch in.A.Kind {
		case ir.ValReg:
			if plain {
				if in.Size == 8 {
					return hStoreRegW8Plain
				}
				return hStoreRegPlain
			}
			return hStoreReg
		case ir.ValFrame:
			if plain {
				if in.Size == 8 {
					return hStoreFrameW8Plain
				}
				return hStoreFramePlain
			}
			return hStoreFrame
		}
		return hStoreGen
	case ir.OpCall:
		if in.PlanIdx >= 0 {
			return hCallPlan
		}
		return hCall
	case ir.OpICall:
		return hICall
	case ir.OpRet:
		return hRet
	case ir.OpBr:
		return hBr
	case ir.OpCondBr:
		if in.A.Kind == ir.ValReg {
			return hCondBrR
		}
		return hCondBrGen
	}
	return hBadOp
}

func hNop(m *Machine, f *frame, in *PIns) { f.pc++ }

func hBadOp(m *Machine, f *frame, in *PIns) {
	m.trapf(TrapAbort, 0, ViaNone, "bad opcode %d", in.Op)
}

// ---- OpBin ----

// finishBin commits a binary-op result: shared tail of every Bin handler.
func finishBin(m *Machine, f *frame, in *PIns, v uint64) {
	f.regs[in.Dst] = v
	f.meta[in.Dst] = invalidMeta
	m.cycles += m.cfg.Cost.Bin
	f.pc++
}

func hAddRR(m *Machine, f *frame, in *PIns) {
	finishBin(m, f, in, f.regs[in.A.Reg]+f.regs[in.B.Reg])
}

func hAddRC(m *Machine, f *frame, in *PIns) {
	finishBin(m, f, in, f.regs[in.A.Reg]+in.B.Imm)
}

func hSubRR(m *Machine, f *frame, in *PIns) {
	finishBin(m, f, in, f.regs[in.A.Reg]-f.regs[in.B.Reg])
}

func hSubRC(m *Machine, f *frame, in *PIns) {
	finishBin(m, f, in, f.regs[in.A.Reg]-in.B.Imm)
}

func hBinRR(m *Machine, f *frame, in *PIns) {
	v, err := aluEval(in.ALU, f.regs[in.A.Reg], f.regs[in.B.Reg])
	if err != nil {
		m.trapf(TrapDivZero, 0, ViaNone, "division by zero")
		return
	}
	finishBin(m, f, in, v)
}

func hBinRC(m *Machine, f *frame, in *PIns) {
	v, err := aluEval(in.ALU, f.regs[in.A.Reg], in.B.Imm)
	if err != nil {
		m.trapf(TrapDivZero, 0, ViaNone, "division by zero")
		return
	}
	finishBin(m, f, in, v)
}

func hBinGen(m *Machine, f *frame, in *PIns) {
	a, _ := m.evalP(f, &in.A)
	b, _ := m.evalP(f, &in.B)
	v, err := aluEval(in.ALU, a, b)
	if err != nil {
		m.trapf(TrapDivZero, 0, ViaNone, "division by zero")
		return
	}
	finishBin(m, f, in, v)
}

// ---- OpMov ----

// The mov handlers implement promoted-variable traffic: value and metadata
// move between registers (the metadata copy is what preserves based-on
// provenance when a pointer variable lives in a register instead of a safe-
// stack slot).

func hMovR(m *Machine, f *frame, in *PIns) {
	f.regs[in.Dst] = f.regs[in.A.Reg]
	f.meta[in.Dst] = f.meta[in.A.Reg]
	m.cycles += m.cfg.Cost.Mov
	f.pc++
}

func hMovC(m *Machine, f *frame, in *PIns) {
	f.regs[in.Dst] = in.A.Imm
	f.meta[in.Dst] = invalidMeta
	m.cycles += m.cfg.Cost.Mov
	f.pc++
}

func hMovGen(m *Machine, f *frame, in *PIns) {
	v, meta := m.evalP(f, &in.A)
	f.regs[in.Dst] = v
	f.meta[in.Dst] = meta
	m.cycles += m.cfg.Cost.Mov
	f.pc++
}

// ---- OpAddr / OpCast ----

func hAddr(m *Machine, f *frame, in *PIns) {
	v, meta := m.evalP(f, &in.A)
	f.regs[in.Dst] = v
	f.meta[in.Dst] = meta
	m.cycles += m.cfg.Cost.Addr
	f.pc++
}

func hCast(m *Machine, f *frame, in *PIns) {
	v, meta := m.evalP(f, &in.A)
	// Metadata propagates through casts (the Levee relaxation for unsafe
	// casts, §4 and Appendix A); char casts truncate.
	if in.CastChar {
		v &= 0xff
	}
	f.regs[in.Dst] = v
	f.meta[in.Dst] = meta
	m.cycles += m.cfg.Cost.Cast
	f.pc++
}

// ---- OpGEP ----

// finishGEP commits a pointer-arithmetic result with based-on propagation
// (§3.1 case (iv)) and charges the GEP costs. Shared by the GEP handlers.
func finishGEP(m *Machine, f *frame, in *PIns, addr uint64, meta Meta) {
	f.regs[in.Dst] = addr
	f.meta[in.Dst] = meta
	m.cycles += m.cfg.Cost.GEP
	if m.cfg.SoftBound {
		// Full memory safety propagates bounds metadata on every pointer
		// arithmetic operation (register pressure + moves).
		m.cycles += m.cfg.Cost.SBGEP
	}
	f.pc++
}

func hGEPRR(m *Machine, f *frame, in *PIns) {
	addr := f.regs[in.A.Reg] + f.regs[in.B.Reg]*uint64(in.Scale) + uint64(in.Off)
	finishGEP(m, f, in, addr, f.meta[in.A.Reg])
}

func hGEPRC(m *Machine, f *frame, in *PIns) {
	addr := f.regs[in.A.Reg] + in.B.Imm*uint64(in.Scale) + uint64(in.Off)
	finishGEP(m, f, in, addr, f.meta[in.A.Reg])
}

func hGEPGen(m *Machine, f *frame, in *PIns) {
	base, meta := m.evalP(f, &in.A)
	idx, _ := m.evalP(f, &in.B)
	finishGEP(m, f, in, base+idx*uint64(in.Scale)+uint64(in.Off), meta)
}

// ---- OpLoad / OpStore ----

// evalVal resolves a value operand with the register case — the
// overwhelmingly common shape — kept small enough to inline at every call
// site; constants and the rest go through evalValSlow/evalP.
func (m *Machine) evalVal(f *frame, v *PVal) (uint64, Meta) {
	if v.Kind == ir.ValReg {
		return f.regs[v.Reg], f.meta[v.Reg]
	}
	return m.evalValSlow(f, v)
}

func (m *Machine) evalValSlow(f *frame, v *PVal) (uint64, Meta) {
	if v.Kind == ir.ValConst {
		return v.Imm, invalidMeta
	}
	return m.evalP(f, v)
}

// evalU is evalVal for callers that discard the metadata: skipping the
// 32-byte Meta copy keeps it under the inlining budget.
func (m *Machine) evalU(f *frame, v *PVal) uint64 {
	if v.Kind == ir.ValReg {
		return f.regs[v.Reg]
	}
	return m.evalUSlow(f, v)
}

func (m *Machine) evalUSlow(f *frame, v *PVal) uint64 {
	if v.Kind == ir.ValConst {
		return v.Imm
	}
	u, _ := m.evalP(f, v)
	return u
}

// frameAddr resolves a ValFrame address operand: the object's address, its
// bounds metadata, and whether accesses through it go to the safe space.
func frameAddr(m *Machine, f *frame, v *PVal) (uint64, Meta, bool) {
	base := f.safeBase
	if v.Unsafe {
		base = f.regBase
	}
	a := base + uint64(v.ObjOff)
	return a + v.Imm, Meta{
		Kind: sps.KindData, Lower: a, Upper: a + uint64(v.Size),
	}, !v.Unsafe && m.cfg.SafeStack
}

func hLoadReg(m *Machine, f *frame, in *PIns) {
	m.loadInto(f, in, f.regs[in.A.Reg], f.meta[in.A.Reg], false, true)
}

// hLoadRegPlain / hLoadFramePlain skip the flag test and the loadInto call
// layer entirely for unflagged accesses (chosen at predecode).
func hLoadRegPlain(m *Machine, f *frame, in *PIns) {
	m.loadPlainInto(f, f.regs[in.A.Reg], false, in.Dst, in.Size)
}

func hLoadFramePlain(m *Machine, f *frame, in *PIns) {
	addr, _, onSafe := frameAddr(m, f, &in.A)
	m.loadPlainInto(f, addr, onSafe, in.Dst, in.Size)
}

func hLoadFrame(m *Machine, f *frame, in *PIns) {
	addr, meta, onSafe := frameAddr(m, f, &in.A)
	m.loadInto(f, in, addr, meta, onSafe, false)
}

// frameWordAddr resolves a ValFrame operand's address and address space
// without materializing bounds metadata — the plain-access resolution,
// small enough to inline into the word-sized handlers.
func frameWordAddr(m *Machine, f *frame, v *PVal) (addr uint64, onSafe bool) {
	base := f.safeBase
	if v.Unsafe {
		base = f.regBase
	} else if m.cfg.SafeStack {
		onSafe = true
	}
	return base + uint64(v.ObjOff) + v.Imm, onSafe
}

// The W8 handlers flatten the whole plain word access — translation-cache
// probe included — into the handler body; only cache misses and
// page-straddling words leave it. These are the interpreter's most common
// dynamic instructions (the mini-C compiler spills every local), so they
// are kept call-free on the hit path.

func hLoadRegW8Plain(m *Machine, f *frame, in *PIns) {
	addr := f.regs[in.A.Reg]
	if v, ok := m.mem.TryLoadWord(addr); ok {
		m.cycles += m.cfg.Cost.Load
		f.regs[in.Dst] = v
		f.meta[in.Dst] = invalidMeta
		f.pc++
		return
	}
	m.loadPlainInto(f, addr, false, in.Dst, 8)
}

func hLoadFrameW8Plain(m *Machine, f *frame, in *PIns) {
	addr, onSafe := frameWordAddr(m, f, &in.A)
	if !onSafe {
		if v, ok := m.mem.TryLoadWord(addr); ok {
			m.cycles += m.cfg.Cost.Load
			f.regs[in.Dst] = v
			f.meta[in.Dst] = invalidMeta
			f.pc++
			return
		}
	} else if v, ok := m.safe.TryLoadWord(addr); ok {
		m.cycles += m.cfg.Cost.Load
		f.regs[in.Dst] = v
		f.meta[in.Dst] = m.safeMetaAt(addr)
		f.pc++
		return
	}
	m.loadPlainInto(f, addr, onSafe, in.Dst, 8)
}

func hStoreRegW8Plain(m *Machine, f *frame, in *PIns) {
	addr := f.regs[in.A.Reg]
	val := m.evalU(f, &in.B)
	if m.cfg.Isolation == IsoSFI {
		m.cycles += m.cfg.Cost.SFIMask
	}
	if m.mem.TryStoreWord(addr, val) {
		m.cycles += m.cfg.Cost.Store
		f.pc++
		return
	}
	m.storePlainSlow(f, addr, false, val, invalidMeta, 8)
}

func hStoreFrameW8Plain(m *Machine, f *frame, in *PIns) {
	addr, onSafe := frameWordAddr(m, f, &in.A)
	val, valMeta := m.evalVal(f, &in.B)
	if !onSafe {
		if m.cfg.Isolation == IsoSFI {
			m.cycles += m.cfg.Cost.SFIMask
		}
		if m.mem.TryStoreWord(addr, val) {
			m.cycles += m.cfg.Cost.Store
			f.pc++
			return
		}
	} else if m.safe.TryStoreWord(addr, val) {
		m.setSafeMeta(addr, valMeta)
		m.cycles += m.cfg.Cost.Store
		f.pc++
		return
	}
	m.storePlainSlow(f, addr, onSafe, val, valMeta, 8)
}

func hLoadGen(m *Machine, f *frame, in *PIns) {
	addr, meta, onSafe := m.addrSpaceP(f, &in.A)
	m.loadInto(f, in, addr, meta, onSafe, in.A.Kind == ir.ValReg)
}

func hStoreReg(m *Machine, f *frame, in *PIns) {
	val, valMeta := m.evalVal(f, &in.B)
	m.storeFrom(f, in, f.regs[in.A.Reg], f.meta[in.A.Reg], false, true, val, valMeta)
}

func hStoreRegPlain(m *Machine, f *frame, in *PIns) {
	val, valMeta := m.evalVal(f, &in.B)
	m.storePlainFrom(f, f.regs[in.A.Reg], false, val, valMeta, in.Size)
}

func hStoreFramePlain(m *Machine, f *frame, in *PIns) {
	addr, _, onSafe := frameAddr(m, f, &in.A)
	val, valMeta := m.evalVal(f, &in.B)
	m.storePlainFrom(f, addr, onSafe, val, valMeta, in.Size)
}

func hStoreFrame(m *Machine, f *frame, in *PIns) {
	addr, meta, onSafe := frameAddr(m, f, &in.A)
	val, valMeta := m.evalVal(f, &in.B)
	m.storeFrom(f, in, addr, meta, onSafe, false, val, valMeta)
}

func hStoreGen(m *Machine, f *frame, in *PIns) {
	addr, meta, onSafe := m.addrSpaceP(f, &in.A)
	val, valMeta := m.evalVal(f, &in.B)
	m.storeFrom(f, in, addr, meta, onSafe, in.A.Kind == ir.ValReg, val, valMeta)
}

// ---- control transfer ----

func hCall(m *Machine, f *frame, in *PIns) { m.execCallWith(f, in) }

// hCallPlan is the register-calling-convention call handler, chosen at
// predecode for direct calls with an argument plan.
func hCallPlan(m *Machine, f *frame, in *PIns) { m.execCallPlan(f, in) }

func hICall(m *Machine, f *frame, in *PIns) { m.execICall(f, in) }

func hRet(m *Machine, f *frame, in *PIns) { m.execRet(f, in) }

func hBr(m *Machine, f *frame, in *PIns) {
	f.pc = int(in.Targ0)
	m.cycles += m.cfg.Cost.Br
}

func hCondBrR(m *Machine, f *frame, in *PIns) {
	if f.regs[in.A.Reg] != 0 {
		f.pc = int(in.Targ0)
	} else {
		f.pc = int(in.Targ1)
	}
	m.cycles += m.cfg.Cost.CondBr
}

func hCondBrGen(m *Machine, f *frame, in *PIns) {
	v, _ := m.evalP(f, &in.A)
	if v != 0 {
		f.pc = int(in.Targ0)
	} else {
		f.pc = int(in.Targ1)
	}
	m.cycles += m.cfg.Cost.CondBr
}
