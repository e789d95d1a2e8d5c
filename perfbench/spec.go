package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// specCell is one (program, configuration) pair of the spec workload.
type specCell struct {
	w    workloads.Workload
	cfg  harness.NamedConfig
	id   string
	prog *core.Program
}

// specOut is what one run of a cell produced.
type specOut struct {
	trap          vm.TrapKind
	exit          int64
	out           string
	cycles, steps int64
}

// specExpected is each program's exit code and output, the same under
// every configuration. The programs self-check and exit with a checksum;
// Workload.Check is unset (0) for all of them, so the values are pinned
// here, as recorded from vanilla runs when this benchmark was written.
var specExpected = map[string]struct {
	exit int64
	out  string
}{
	"400.perlbench":  {200, "perlbench checksum 27848\n"},
	"401.bzip2":      {232, "bzip2 checksum 12008\n"},
	"403.gcc":        {168, "gcc checksum 31144 nodes 1\n"},
	"429.mcf":        {144, "mcf checksum 52624\n"},
	"433.milc":       {28, "milc checksum 7964\n"},
	"444.namd":       {189, "namd checksum 63421\n"},
	"445.gobmk":      {138, "gobmk checksum 5514\n"},
	"447.dealII":     {0, "dealII checksum 0\n"},
	"450.soplex":     {200, "soplex checksum 11720\n"},
	"453.povray":     {80, "povray checksum 61776\n"},
	"456.hmmer":      {122, "hmmer checksum 7802\n"},
	"458.sjeng":      {168, "sjeng checksum 65448\n"},
	"462.libquantum": {139, "libquantum checksum 53131\n"},
	"464.h264ref":    {238, "h264ref checksum 47598\n"},
	"470.lbm":        {59, "lbm checksum 47931\n"},
	"471.omnetpp":    {35, "omnetpp checksum 5155 processed 1135\n"},
	"473.astar":      {54, "astar checksum 310\n"},
	"482.sphinx3":    {76, "sphinx3 checksum 23116\n"},
	"483.xalancbmk":  {92, "xalancbmk checksum 14428\n"},
}

// specConfigs are vanilla plus one column per registered backend: the
// Table 1 configurations of harness.SpecConfigs without the safe stack.
func specConfigs() []harness.NamedConfig {
	var out []harness.NamedConfig
	for _, nc := range harness.SpecConfigs() {
		if nc.Name != "safestack" {
			out = append(out, nc)
		}
	}
	return out
}

// specCells lists the cells workload-major, configuration-minor, with
// vanilla first in each program's row.
func specCells() []specCell {
	var cells []specCell
	for _, w := range workloads.Spec() {
		for _, nc := range specConfigs() {
			cells = append(cells, specCell{w: w, cfg: nc, id: w.Name + "/" + nc.Name})
		}
	}
	return cells
}

// specSetup compiles and predecodes every cell.
func specSetup() ([]specCell, error) {
	cells := specCells()
	for i := range cells {
		p, err := core.Compile(cells[i].w.Src, cells[i].cfg.Cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].id, err)
		}
		p.Predecoded()
		cells[i].prog = p
	}
	return cells, nil
}

// checkSpec counts the failed runs of one pass: a run fails when its exit
// code or output is not the program's expected one — so a backend's also
// differs from vanilla's — or when its cycle or step count differs from
// the first pass (want, nil on the first pass).
func checkSpec(cells []specCell, outs, want []specOut) int64 {
	var failed int64
	for i, c := range cells {
		o, exp := outs[i], specExpected[c.w.Name]
		var why string
		switch {
		case o.trap != vm.TrapExit || o.exit != exp.exit || o.out != exp.out:
			why = fmt.Sprintf("trap %v exit %d output %q, want exit %d output %q", o.trap, o.exit, o.out, exp.exit, exp.out)
		case want != nil && (o.cycles != want[i].cycles || o.steps != want[i].steps):
			why = "cycle or step count differs between passes"
		default:
			continue
		}
		failed++
		fmt.Fprintf(os.Stderr, "spec %s: %s\n", c.id, why)
	}
	return failed
}

// cycleOverheads is the Table 1 average overhead of each backend over
// vanilla, assembled from one pass exactly as harness.Summarize does.
func cycleOverheads(cells []specCell, outs []specOut) map[string]float64 {
	var results []*harness.Result
	byName := map[string]*harness.Result{}
	for i, c := range cells {
		r := byName[c.w.Name]
		if r == nil {
			r = &harness.Result{Name: c.w.Name, Lang: c.w.Lang, Cycles: map[string]int64{}}
			byName[c.w.Name] = r
			results = append(results, r)
		}
		r.Cycles[c.cfg.Name] = outs[i].cycles
	}
	v := map[string]float64{}
	for _, name := range core.Backends() {
		v["cycle_ovh_"+name+"_pct"] = harness.Summarize(results, name, -1).Avg
	}
	return v
}

func outOf(r *vm.Result) specOut {
	return specOut{r.Trap, r.ExitCode, r.Output, r.Cycles, r.Steps}
}

// runSpec measures whole passes over the 76 cells, each on a fresh set-up
// and in a seeded order.
func runSpec(opt options) (*result, error) {
	if opt.trace {
		return traceSpec(opt)
	}
	rng := rand.New(rand.NewPCG(uint64(opt.seed), 0x5bec))
	res := &result{values: map[string]float64{}}
	var first []specOut
	err := measure(opt, res.values, func(int) (map[string]float64, error) {
		// Three set-ups per pass: one takes under 0.1 s, and its time alone
		// swung by a quarter between runs.
		var cells []specCell
		var setups []float64
		for i := 0; i < 3; i++ {
			c, d, err := timeSetup(specSetup)
			if err != nil {
				return nil, err
			}
			cells, setups = c, append(setups, d)
		}
		outs := make([]specOut, len(cells))
		lat := make([]float64, 0, len(cells))
		var steps int64
		start := time.Now()
		for _, i := range rng.Perm(len(cells)) {
			t := time.Now()
			r, err := cells[i].prog.Run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cells[i].id, err)
			}
			lat = append(lat, ms(time.Since(t)))
			outs[i] = outOf(r)
			steps += r.Steps
		}
		rate := float64(steps) / time.Since(start).Seconds()
		res.attempted += int64(len(cells))
		res.failed += checkSpec(cells, outs, first)
		if first == nil {
			first = outs
			for k, v := range cycleOverheads(cells, outs) {
				res.values[k] = v
			}
		}
		return map[string]float64{"setup_s": median(setups), "ops_per_s": rate,
			"p50_ms": percentile(lat, 50), "tail_ms": percentile(lat, 90)}, nil
	})
	res.correct = res.failed == 0
	return res, err
}

// traceSpec runs one pass untraced (core.Compile, Predecoded, a fresh
// machine, Run per cell) and the same pass traced, compiling stage by
// stage.
func traceSpec(opt options) (*result, error) {
	cells := specCells()
	order := rand.New(rand.NewPCG(uint64(opt.seed), 0x5bec)).Perm(len(cells))

	before := readRuntime()
	t := time.Now()
	for _, i := range order {
		p, err := core.Compile(cells[i].w.Src, cells[i].cfg.Cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].id, err)
		}
		if _, err := p.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].id, err)
		}
	}
	untraced := time.Since(t)
	after := readRuntime()

	tr, c := newTracer(), &counts{}
	res := &result{tracer: tr, values: map[string]float64{}}
	outs := make([]specOut, len(cells))
	var checking time.Duration
	t = time.Now()
	for _, i := range order {
		cell := cells[i]
		root := tr.begin("program", cell.id, -1)
		prog, code, err := compileStaged(tr, c, root, cell.id, cell.w.Src, cell.cfg.Cfg)
		if err != nil {
			return nil, err
		}
		m, err := newMachine(tr, c, root, cell.id, prog, code)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cell.id, err)
		}
		outs[i] = outOf(runMain(tr, c, root, cell.id, m))
		tr.end(root)

		cs := time.Now()
		if err := checkStaged(prog, code, cell.w.Src, cell.cfg.Cfg); err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "spec %s: %v\n", cell.id, err)
		}
		checking += time.Since(cs)
	}
	traced := time.Since(t) - checking

	res.attempted = int64(len(cells))
	res.failed += checkSpec(cells, outs, nil)
	res.correct = res.failed == 0
	self := selfMs(tr.summary())
	putSelfTimes(res.values, self)
	c.put(res.values, self["run"])
	putRuntime(res.values, before, after, int64(len(cells)))
	putTraceCost(res.values, tr, traced, untraced)
	return res, nil
}
