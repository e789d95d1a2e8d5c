package main

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/minic/parser"
	"repro/internal/minic/sema"
	"repro/internal/vm"
)

// counts accumulates the per-layer counts of a traced run. The serve
// workers add runs from two goroutines, hence the lock.
type counts struct {
	mu                         sync.Mutex
	irInstrs                   int64
	ptObjects, ptSensitive     int64
	memops, instrumented, chks int64
	machines                   int64
	steps, cycles, dispatches  int64
	blockAbsorbed              int64
	pacSigns, pacAuths         int64
	sweepCycles, spsPeak       int64
}

func (c *counts) addRun(r *vm.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps += r.Steps
	c.cycles += r.Cycles
	c.dispatches += r.Dispatches
	c.blockAbsorbed += r.BlockSteps - r.BlockEntries
	c.pacSigns += r.PacSigns
	c.pacAuths += r.PacAuths
	c.sweepCycles += r.SweepCycles
	c.spsPeak = max(c.spsPeak, r.Mem.SPSBytes)
}

// put writes the counts, and the run layer's ratios, into a traced run's
// metric values. runMs is the run layer's self time.
func (c *counts) put(v map[string]float64, runMs float64) {
	v["irgen.instrs"] = float64(c.irInstrs)
	v["pointsto.objects"] = float64(c.ptObjects)
	v["pointsto.sensitive"] = float64(c.ptSensitive)
	v["instrument.memops"] = float64(c.memops)
	v["instrument.instrumented"] = float64(c.instrumented)
	v["instrument.checks"] = float64(c.chks)
	v["machine_new.count"] = float64(c.machines)
	v["run.steps"] = float64(c.steps)
	v["run.cycles"] = float64(c.cycles)
	v["run.dispatches"] = float64(c.dispatches)
	if c.steps > 0 {
		v["run.block_frac"] = float64(c.blockAbsorbed) / float64(c.steps)
		v["run.ns_per_step"] = runMs * 1e6 / float64(c.steps)
	}
	v["run.pac_signs"] = float64(c.pacSigns)
	v["run.pac_auths"] = float64(c.pacAuths)
	v["run.sweep_cycles"] = float64(c.sweepCycles)
	v["run.sps_bytes_peak"] = float64(c.spsPeak)
}

// backendOf resolves the enforcement backend of the configurations this
// benchmark compiles: vanilla (nil), Protect CPS/CPI, or a Backend name.
func backendOf(cfg core.Config) (backend.Backend, error) {
	if len(cfg.SensitiveStructs) > 0 || cfg.NoPointsTo || cfg.AuditSensitive {
		return nil, fmt.Errorf("staged compile does not model %+v", cfg)
	}
	name := cfg.Backend
	switch cfg.Protect {
	case core.Vanilla:
	case core.CPS:
		name = "cps"
	case core.CPI:
		name = "cpi"
	default:
		return nil, fmt.Errorf("staged compile does not model protection %s", cfg.Protect)
	}
	if name == "" {
		return nil, nil
	}
	bk, ok := backend.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", name)
	}
	return bk, nil
}

// compileStaged compiles src the way core.Compile does, one public call per
// layer, with a span around each call, and predecodes the result the way
// Program.Predecoded does. Counts of each stage's output go to c.
func compileStaged(tr *tracer, c *counts, parent int32, id, src string, cfg core.Config) (*core.Program, *vm.Code, error) {
	s := tr.begin("parse", id, parent)
	f, err := parser.Parse(src)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: parse: %w", id, err)
	}
	s = tr.begin("sema", id, parent)
	err = sema.Check(f)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: typecheck: %w", id, err)
	}
	s = tr.begin("irgen", id, parent)
	p, err := irgen.LowerWith(f, irgen.Options{PromoteRegisters: !cfg.NoPromote})
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: lower: %w", id, err)
	}
	c.irInstrs += int64(instrCount(p))

	bk, err := backendOf(cfg)
	if err != nil {
		return nil, nil, err
	}
	var pt *analysis.PointsTo
	if bk != nil {
		s = tr.begin("pointsto", id, parent)
		pt = analysis.SolvePointsTo(p)
		tr.end(s)
		objs, sens := pt.Counts()
		c.ptObjects += int64(objs)
		c.ptSensitive += int64(sens)
	}

	s = tr.begin("instrument", id, parent)
	var stats analysis.Stats
	if bk != nil {
		if bk.SafeStack() {
			instrument.SafeStack(p)
		}
		stats = instrument.WithBackend(p, bk, instrument.Opts{PointsTo: pt})
	} else {
		stats = analysis.Collect(p)
	}
	tr.end(s)
	c.memops += int64(stats.MemOps)
	c.instrumented += int64(stats.Instrumented)
	c.chks += int64(stats.Checks)

	s = tr.begin("verify", id, parent)
	err = p.Verify()
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: post-instrumentation verify: %w", id, err)
	}

	s = tr.begin("predecode", id, parent)
	code := vm.PredecodeWith(p, vm.PredecodeOptions{NoBlockCompile: cfg.NoBlockCompile})
	tr.end(s)
	return &core.Program{IR: p, Cfg: cfg, Stats: stats}, code, nil
}

// instrCount is the size of a lowered program in IR instructions.
func instrCount(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Ins)
		}
	}
	return n
}

// checkStaged compares a staged compilation with core.Compile plus
// Predecoded for the same source and configuration: the IR print, the
// analysis statistics and the shape of the predecoded code must agree.
func checkStaged(prog *core.Program, code *vm.Code, src string, cfg core.Config) error {
	ref, err := core.Compile(src, cfg)
	if err != nil {
		return fmt.Errorf("reference compile: %w", err)
	}
	rc := ref.Predecoded()
	switch {
	case ref.Stats != prog.Stats:
		return fmt.Errorf("staged compile stats %+v, core.Compile %+v", prog.Stats, ref.Stats)
	case ref.IR.String() != prog.IR.String():
		return fmt.Errorf("staged compile IR differs from core.Compile's")
	case len(rc.Funcs) != len(code.Funcs) || rc.FusedPairs != code.FusedPairs ||
		rc.BlockSegs != code.BlockSegs || rc.RegConvSites != code.RegConvSites:
		return fmt.Errorf("staged predecode differs from Program.Predecoded")
	}
	return nil
}

// newMachine builds a fresh machine for a staged program inside a
// machine_new span.
func newMachine(tr *tracer, c *counts, parent int32, id string, prog *core.Program, code *vm.Code) (*vm.Machine, error) {
	s := tr.begin("machine_new", id, parent)
	m, err := vm.NewShared(prog.IR, code, prog.VMConfig())
	tr.end(s)
	c.mu.Lock()
	c.machines++
	c.mu.Unlock()
	return m, err
}

// runMain runs main() inside a run span and adds the run's counts to c.
func runMain(tr *tracer, c *counts, parent int32, id string, m *vm.Machine) *vm.Result {
	s := tr.begin("run", id, parent)
	r := m.Run("main")
	tr.end(s)
	c.addRun(r)
	return r
}
