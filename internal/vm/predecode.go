package vm

import (
	"repro/internal/ctypes"
	"repro/internal/ir"
)

// This file implements the predecode layer of the interpreter: a one-time
// lowering of an ir.Program into a flat, execution-ready form that the
// per-step dispatch loop consumes directly.
//
// Predecoding performs, once per program instead of once per step:
//
//   - block flattening: each function's blocks become a single pc-indexed
//     instruction stream, so "advance" is pc++ and branches assign pc
//     directly (no Blocks[blk].Ins[ip] double indirection);
//   - branch resolution: OpBr/OpCondBr targets become absolute pc indices;
//   - operand resolution: the per-operand fields the eval kind-switch used
//     to chase through ir.Func/ir.Program at every step (frame object
//     offset/size/stack placement, global and string sizes, sign-extended
//     immediates) are resolved into a flat PVal;
//   - handler resolution: every instruction gets a handler function chosen
//     once from its opcode AND its operand shapes (see dispatch.go), so the
//     per-step loop performs one indirect call instead of walking the
//     opcode switch plus a per-operand kind-switch;
//   - block compilation: every block head and call return site anchors a
//     straight-line segment that runs as one dispatch (see blocks.go);
//     segments charge every constituent's own cost and step, so they are
//     invisible to the cycle/step tables;
//   - call-site numbering: every static call site (return sites, setjmp
//     sites) gets its ordinal, so the machine resolves site addresses with
//     an O(1) slice index instead of scanning the site map per call.
//
// A Code value depends only on the ir.Program — never on a Machine's memory
// layout (ASLR slides, seeds), so one predecoded program is shared by every
// machine that runs it, including the parallel harness fan-out. Code is
// immutable after Predecode and safe for concurrent use.
//
// Predecoding is pure lowering: one PIns per ir.Instr, identical dispatch
// semantics, identical cost charging. The golden determinism tests pin the
// resulting Cycles/Steps tables bit-for-bit.

// Code is the predecoded, execution-ready form of a program.
type Code struct {
	Funcs []FuncCode

	// NumRetSites and NumJmpSites are the static call-site counts; the
	// machine derives site addresses from the ordinals by arithmetic.
	NumRetSites int
	NumJmpSites int

	// JmpSites is the setjmp-site table: ordinal → resume point. Like the
	// ordinal counts it is program-derived layout computed once here and
	// shared by every machine; slides are applied per machine
	// (Machine.jmpSiteAddr / jmpSiteAt).
	JmpSites []JmpSite

	// Slide-independent data layout, computed once here instead of per
	// machine: byte offsets of each string literal within rodata and of
	// each global within the data segment, plus the segment extents. The
	// bases are aligned beyond any type alignment and ASLR slides are page
	// multiples, so base+slide+offset reproduces the per-machine addresses
	// bit for bit.
	StrOff       []uint64
	RodataBytes  uint64
	GlobalOff    []uint64
	GlobalsBytes int64

	// FusedPairs is always 0. It counted the heads of a superinstruction-
	// fusion pass that block compilation made redundant and that has been
	// deleted; it stays only because the benchmark's staged-compile check
	// (perfbench/compile.go) still compares it between two predecodings.
	FusedPairs int

	// BlockSegs counts the block-compiled segments installed (0 when
	// predecoded with NoBlockCompile or AuditHooks; see blocks.go).
	BlockSegs int

	// RegConvSites counts the direct call sites predecoded with a
	// register-convention argument plan (see regArgPlan).
	RegConvSites int
}

// FuncCode is one function flattened to a pc-indexed instruction stream.
type FuncCode struct {
	Ins []PIns
	// BlockPC maps a block index to the pc of its first instruction.
	BlockPC []int32
	// Plans holds the register-convention argument plans of this function's
	// call sites, indexed by PIns.PlanIdx.
	Plans [][]PArg
	// NeedsRegClear marks functions where some register read is not
	// provably preceded by a write on every path (see regsDefBeforeUse):
	// their pooled register files must be re-zeroed per activation. Most
	// functions are proven clean and skip the per-call clear entirely.
	NeedsRegClear bool
	// Segs maps a pc to the block-compiled segment anchored there (a
	// zero-length ref for non-entry slots; see blocks.go), as an
	// offset/length window into SegOps. Allocated whenever block
	// compilation ran, even if no segment qualified — the segment
	// trampoline indexes it for every function a run can enter. SegOps
	// pools every segment's flattened micro-ops contiguously so the
	// segment runner streams one dense array per function.
	Segs   []segRef
	SegOps []segOp
}

// PIns is one predecoded instruction. Hot fields are resolved copies of the
// ir.Instr; In points back to the original for the cold paths that need
// unresolved detail (intrinsic kinds, format strings).
//
// Field order is cache-conscious: the dispatch loop reads run first, and
// the hot handlers then read A/B and the packed scalar block, so the first
// two cache lines of a PIns cover an instruction's entire hot state; the
// cold call fields sit at the tail.
type PIns struct {
	// run is the handler resolved at predecode time; the dispatch loop
	// calls it directly. It is chosen from Op plus operand shapes, and
	// replaced by hSeg at slots that anchor a block-compiled segment.
	run handler

	A, B PVal

	Dst      int32 // destination register; -1 when none
	Targ0    int32 // resolved branch target (OpBr, OpCondBr taken)
	Targ1    int32 // resolved branch target (OpCondBr fallthrough)
	Scale    int64 // OpGEP index scale
	Off      int64 // OpGEP constant offset
	Op       ir.Op
	Size     uint8 // load/store width
	ALU      ir.ALU
	CastChar bool // OpCast truncates to a byte
	Flags    ir.Prot

	Blk, IP int32 // original (block, instr) position, for diagnostics
	SiteOrd int32 // return-site ordinal (calls) / jmp-site ordinal (builtins); -1 otherwise
	Callee  int32 // OpCall callee function index (< 0: intrinsic)
	PlanIdx int32 // register-convention plan index into FuncCode.Plans; -1 means the generic arg loop runs

	Args []PVal // predecoded call/intrinsic argument list
	In   *ir.Instr
}

// JmpSite is one setjmp call site: the resume point longjmp transfers to
// and the register receiving setjmp's second return value. PC is the flat
// predecoded index of the instruction after the setjmp call.
type JmpSite struct {
	Fn  int32
	PC  int32
	Dst int32
}

// PArg is one argument of the register calling convention: a caller register
// (Reg >= 0) or an immediate (Reg < 0, value in Imm). A call site with a
// plan (PIns.PlanIdx >= 0) moves its arguments straight into the callee's
// register file — pushFrameReg — with no per-argument operand kind dispatch.
// Plans live in a per-function side table rather than in PIns itself so the
// stream's per-instruction footprint (dispatch-loop cache pressure) does not
// pay a slice header on every instruction.
type PArg struct {
	Imm uint64
	Reg int32
}

// regArgPlan builds the register-convention plan for a call site the irgen
// promotion pass tagged (ir.Instr.RegArgs): the tag is the eligibility
// signal, and this re-validates what the fast path relies on — every
// argument a register or constant, and the argument list covering the
// callee's parameters exactly, so pushFrameReg needs neither the arity
// zero-fill nor a bounds guard against the callee register file.
func regArgPlan(callee *ir.Func, in *ir.Instr) []PArg {
	if len(in.Args) != len(callee.Params) || len(callee.Params) > callee.NumRegs {
		return nil
	}
	plan := make([]PArg, len(in.Args))
	for i, a := range in.Args {
		switch a.Kind {
		case ir.ValReg:
			plan[i] = PArg{Reg: int32(a.Reg)}
		case ir.ValConst:
			plan[i] = PArg{Reg: -1, Imm: uint64(a.Imm)}
		default:
			return nil
		}
	}
	return plan
}

// PVal is a predecoded operand: the ir.Value kind-switch with every
// program-constant lookup (frame object layout, global/string sizes) already
// performed. Machine-dependent bases (frame, global, string addresses) are
// still resolved at evaluation time — they differ per machine under ASLR.
// Size and ObjOff are uint32 (object sizes and frame offsets are far below
// 4 GiB) to keep the struct at 32 bytes — operand footprint is dispatch-loop
// cache pressure.
type PVal struct {
	Imm    uint64 // sign-extended constant / byte offset
	Size   uint32 // target object byte size (frame/global/string)
	ObjOff uint32 // frame object offset within its stack frame
	Reg    int32
	Index  int32
	Kind   ir.ValKind
	Unsafe bool // frame object lives on the unsafe (regular) stack
}

func predecodeVal(p *ir.Program, fn *ir.Func, v ir.Value) PVal {
	pv := PVal{
		Kind:  v.Kind,
		Reg:   int32(v.Reg),
		Index: int32(v.Index),
		Imm:   uint64(v.Imm),
	}
	switch v.Kind {
	case ir.ValFrame:
		obj := fn.Frame[v.Index]
		pv.Size = uint32(obj.Size)
		pv.ObjOff = uint32(obj.Offset)
		pv.Unsafe = obj.Unsafe
	case ir.ValGlobal:
		pv.Size = uint32(p.Globals[v.Index].Size)
	case ir.ValString:
		pv.Size = uint32(len(p.Strings[v.Index]) + 1)
	}
	return pv
}

// PredecodeOptions tunes the lowering.
type PredecodeOptions struct {
	// NoRegConv disables the register calling convention: no call site gets
	// an argument plan, so every call runs the generic pushFrame argument
	// loop. The calling-convention equivalence tests use this to check that
	// the fast path is observationally identical.
	NoRegConv bool

	// NoBlockCompile disables the block-compilation stage (blocks.go):
	// no basic block or trace is compiled into a segment, so every
	// instruction dispatches through the loop. The block differential
	// tests use this to check that block-compiled execution is
	// observationally identical (Output, Cycles, Steps, traps).
	NoBlockCompile bool

	// AuditHooks routes every load/store through the general handlers
	// (loadInto/storeFrom), where the Config.AuditSensitive provenance
	// checks live, instead of the inlined plain fast paths that skip them.
	// It also disables block compilation — segment bodies inline the same
	// plain fast paths.
	AuditHooks bool
}

// Predecode lowers a program into its execution-ready form with the default
// options (block compilation and the register calling convention on). Site
// ordinals are assigned in program order (function, block, instruction) —
// the same order Machine.load registers site addresses in, which is what
// makes the ordinal→address tables line up.
func Predecode(p *ir.Program) *Code {
	return PredecodeWith(p, PredecodeOptions{})
}

// PredecodeWith lowers a program with explicit options.
func PredecodeWith(p *ir.Program, opt PredecodeOptions) *Code {
	c := &Code{Funcs: make([]FuncCode, len(p.Funcs))}
	var retOrd, jmpOrd int32
	for fi, fn := range p.Funcs {
		fc := &c.Funcs[fi]
		fc.BlockPC = make([]int32, len(fn.Blocks))
		total := 0
		for bi, b := range fn.Blocks {
			fc.BlockPC[bi] = int32(total)
			total += len(b.Ins)
		}
		fc.Ins = make([]PIns, 0, total)
		for bi := range fn.Blocks {
			b := fn.Blocks[bi]
			for ii := range b.Ins {
				in := &b.Ins[ii]
				pi := PIns{
					Op:      in.Op,
					Size:    in.Size,
					ALU:     in.ALU,
					Dst:     int32(in.Dst),
					Blk:     int32(bi),
					IP:      int32(ii),
					SiteOrd: -1,
					PlanIdx: -1,
					Scale:   in.Scale,
					Off:     in.Off,
					Flags:   in.Flags,
					A:       predecodeVal(p, fn, in.A),
					B:       predecodeVal(p, fn, in.B),
					In:      in,
				}
				switch in.Op {
				case ir.OpBr:
					pi.Targ0 = fc.BlockPC[in.Blk0]
				case ir.OpCondBr:
					pi.Targ0 = fc.BlockPC[in.Blk0]
					pi.Targ1 = fc.BlockPC[in.Blk1]
				case ir.OpCast:
					pi.CastChar = in.Ty != nil && in.Ty.Kind == ctypes.KindChar
				case ir.OpCall:
					pi.Callee = int32(in.Callee)
					if in.Callee >= 0 {
						pi.SiteOrd = retOrd
						retOrd++
						if in.RegArgs && !opt.NoRegConv {
							if plan := regArgPlan(p.Funcs[in.Callee], in); plan != nil {
								pi.PlanIdx = int32(len(fc.Plans))
								fc.Plans = append(fc.Plans, plan)
								c.RegConvSites++
							}
						}
					} else {
						pi.SiteOrd = jmpOrd
						jmpOrd++
						c.JmpSites = append(c.JmpSites, JmpSite{
							Fn: int32(fi), PC: fc.BlockPC[bi] + int32(ii) + 1, Dst: int32(in.Dst),
						})
					}
				case ir.OpICall:
					pi.Callee = -1
					pi.SiteOrd = retOrd
					retOrd++
				}
				if len(in.Args) > 0 {
					pi.Args = make([]PVal, len(in.Args))
					for ai, a := range in.Args {
						pi.Args[ai] = predecodeVal(p, fn, a)
					}
				}
				pi.run = chooseHandler(&pi, opt.AuditHooks)
				fc.Ins = append(fc.Ins, pi)
			}
		}
		fc.NeedsRegClear = !regsDefBeforeUse(fn)
	}
	// Block compilation runs after every function is predecoded: traces
	// inline direct-call continuations, so buildTrace reads callee
	// instruction streams across function boundaries.
	if !opt.NoBlockCompile && !opt.AuditHooks {
		for fi := range c.Funcs {
			c.BlockSegs += compileBlocks(c, &c.Funcs[fi])
		}
	}
	c.NumRetSites = int(retOrd)
	c.NumJmpSites = int(jmpOrd)

	// Data layout. Offsets are computed against the absolute (unslid) bases
	// so alignment rounds exactly as the loader's address arithmetic did,
	// then rebased; any page-multiple slide preserves the result.
	c.StrOff = make([]uint64, len(p.Strings))
	saddr := uint64(rodataBase)
	for i, s := range p.Strings {
		c.StrOff[i] = saddr - rodataBase
		end := saddr + uint64(len(s)) + 1
		c.RodataBytes = end - rodataBase
		saddr = align8(end)
	}
	c.GlobalOff = make([]uint64, len(p.Globals))
	gaddr := uint64(globalBase)
	for i, g := range p.Globals {
		a := uint64(g.Type.Align())
		gaddr = (gaddr + a - 1) &^ (a - 1)
		c.GlobalOff[i] = gaddr - globalBase
		gaddr += uint64(g.Size)
	}
	c.GlobalsBytes = int64(gaddr - globalBase)
	return c
}

// regsDefBeforeUse reports whether every register read in fn is preceded by
// a register write on all paths from entry (parameters count as written:
// pushFrame materializes them, zero-filling any arity gap). Functions with
// this property never observe a stale pooled register file, so newFrame
// skips re-zeroing it. The block-graph dataflow is the shared
// ir.MustDefinedIn lattice (also used by the verifier's promoted-register
// invariant and the promotion pass's initialization check).
func regsDefBeforeUse(fn *ir.Func) bool {
	nr := fn.NumRegs
	if nr == 0 {
		return true
	}
	in := fn.MustDefinedIn(nr, fn.ParamSet(), ir.RegDefs)

	// Check every read against the running must-defined set.
	readOK := func(defined []bool, v ir.Value) bool {
		if v.Kind != ir.ValReg {
			return true
		}
		return v.Reg >= 0 && v.Reg < nr && defined[v.Reg]
	}
	defined := make([]bool, nr)
	for bi, b := range fn.Blocks {
		copy(defined, in[bi])
		for ii := range b.Ins {
			ins := &b.Ins[ii]
			if !readOK(defined, ins.A) || !readOK(defined, ins.B) {
				return false
			}
			for _, a := range ins.Args {
				if !readOK(defined, a) {
					return false
				}
			}
			if dst := ins.Dst; dst >= 0 && dst < nr {
				defined[dst] = true
			}
		}
	}
	return true
}
