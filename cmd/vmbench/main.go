// Command vmbench measures raw interpreter throughput (steps/sec, ns/step)
// on the call-heavy micro workloads and writes the results as JSON — the
// BENCH trajectory record CI keeps so interpreter-speed regressions are
// visible per commit.
//
// When the output file already exists, it is loaded as the baseline first
// and each row is printed with its delta against the matching baseline row
// (the ×-speedup per workload/config), so tuning sessions see the
// trajectory without diffing JSON by hand.
//
// Protected rows additionally print their simulated-cycle overhead against
// the same workload's vanilla row — the paper's actual metric — so a cost
// regression is visible even when interpreter throughput is unchanged.
// With -gate403 N, the scaled 403.gcc steady-state workload is also
// measured under every benchmarked config (vanilla, cpi, pac) and the
// command fails if the cpi cycle overhead exceeds N percent (CI runs this
// with N=15).
//
// With -regress N, any vanilla micro cell whose steps/sec dropped more than
// N percent against the loaded baseline fails the run (the CI throughput
// gate against the committed BENCH_vm.json). -noblocks measures with block
// compilation disabled for paired A/B runs; the block column reports the
// fraction of dispatches block-compiled segments absorbed.
//
// Usage:
//
//	go run ./cmd/vmbench [-out BENCH_vm.json] [-reps 3] [-gate403 15] [-regress 20] [-noblocks] [-cpuprofile cpu.pprof]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Row is one measured (workload, config) cell.
type Row struct {
	Workload    string  `json:"workload"`
	Config      string  `json:"config"`
	Steps       int64   `json:"steps"`
	Cycles      int64   `json:"cycles"`
	WallSeconds float64 `json:"wall_seconds"`
	StepsPerSec float64 `json:"steps_per_sec"`
	NsPerStep   float64 `json:"ns_per_step"`

	// BlockFrac is the fraction of dynamic dispatches block compilation
	// absorbed: constituents that ran inside a compiled segment beyond each
	// activation's single dispatch. BlockFrac + Dispatches/Steps partition
	// the executed constituents.
	BlockFrac float64 `json:"block_dispatch_frac"`

	// BaselineStepsPerSec and SpeedupX record the previous run's rate and
	// the ratio against it, when a baseline file was present.
	BaselineStepsPerSec float64 `json:"baseline_steps_per_sec,omitempty"`
	SpeedupX            float64 `json:"speedup_x,omitempty"`

	// OverheadPct is this config's simulated-cycle overhead over the same
	// workload's vanilla row in this run (protected rows only).
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

// Report is the BENCH_vm.json document.
type Report struct {
	Reps int   `json:"reps"`
	Rows []Row `json:"rows"`
}

// StatRow is one (workload, protection, pruning) cell of the Table 2
// instrumentation statistics: the static cost of the protection, measured
// at compile time, with and without the whole-program points-to pruning.
type StatRow struct {
	Workload       string  `json:"workload"`
	Config         string  `json:"config"`    // a registered backend name (cps, cpi, pac, ...)
	PointsTo       bool    `json:"points_to"` // whole-program pruning applied?
	Funcs          int     `json:"funcs"`
	FNUStackPct    float64 `json:"fnustack_pct"`
	MemOps         int     `json:"mem_ops"`
	Instrumented   int     `json:"instrumented"`
	MOPct          float64 `json:"mo_pct"`
	Checks         int     `json:"checks"`
	SafeIntrinsics int     `json:"safe_intrinsics"`
}

// StatsReport is the ANALYSIS_stats.json document CI archives per commit so
// sensitive-set accuracy is tracked like interpreter throughput.
type StatsReport struct {
	Rows []StatRow `json:"rows"`
}

// collectStats compiles every workload under every registered backend,
// pruned and unpruned, and returns the Table 2 columns per cell.
// Compile-only: no execution, so the full matrix is cheap.
func collectStats() (StatsReport, error) {
	set := append([]workloads.Workload{}, workloads.Micro()...)
	set = append(set, workloads.Spec()...)
	set = append(set, workloads.Phoronix()...)
	for _, p := range workloads.WebStack() {
		set = append(set, workloads.Workload{Name: p.Name, Lang: workloads.C, Src: p.Src})
	}
	var rep StatsReport
	for _, w := range set {
		for _, name := range core.Backends() {
			cfg, err := core.ConfigForName(name)
			if err != nil {
				return rep, err
			}
			cfg.DEP = true
			for _, pruned := range []bool{false, true} {
				cfg.NoPointsTo = !pruned
				prog, err := core.Compile(w.Src, cfg)
				if err != nil {
					return rep, fmt.Errorf("%s/%s: compile: %w", w.Name, name, err)
				}
				s := prog.Stats
				rep.Rows = append(rep.Rows, StatRow{
					Workload: w.Name, Config: name, PointsTo: pruned,
					Funcs: s.Funcs, FNUStackPct: s.FNUStackPct(),
					MemOps: s.MemOps, Instrumented: s.Instrumented,
					MOPct: s.MOPct(), Checks: s.Checks,
					SafeIntrinsics: s.SafeIntrs,
				})
			}
		}
	}
	return rep, nil
}

func measure(name, src, cfgName string, cfg core.Config, reps int) (Row, error) {
	prog, err := core.Compile(src, cfg)
	if err != nil {
		return Row{}, fmt.Errorf("%s/%s: compile: %w", name, cfgName, err)
	}
	var steps, cycles int64
	var blockf, best float64
	for i := 0; i < reps; i++ {
		m, err := prog.NewMachine()
		if err != nil {
			return Row{}, fmt.Errorf("%s/%s: machine: %w", name, cfgName, err)
		}
		start := time.Now()
		r := m.Run("main")
		wall := time.Since(start).Seconds()
		if r.Trap != vm.TrapExit {
			return Row{}, fmt.Errorf("%s/%s: trap %v (%v)", name, cfgName, r.Trap, r.Err)
		}
		steps, cycles, blockf = r.Steps, r.Cycles, r.BlockFrac()
		if best == 0 || wall < best {
			best = wall
		}
	}
	row := Row{
		Workload: name, Config: cfgName,
		Steps: steps, Cycles: cycles, WallSeconds: best,
		BlockFrac: blockf,
	}
	if best > 0 {
		row.StepsPerSec = float64(steps) / best
		row.NsPerStep = best * 1e9 / float64(steps)
	}
	return row, nil
}

// loadBaseline reads a previous report, keyed by workload/config. A missing
// or unreadable file is not an error: there is simply no baseline.
func loadBaseline(path string) map[string]Row {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep Report
	if json.Unmarshal(b, &rep) != nil {
		return nil
	}
	base := make(map[string]Row, len(rep.Rows))
	for _, r := range rep.Rows {
		base[r.Workload+"/"+r.Config] = r
	}
	return base
}

func fail(err error) {
	// os.Exit skips deferred calls: flush any in-progress CPU profile so a
	// failed cell still leaves the completed cells' samples usable.
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	out := flag.String("out", "BENCH_vm.json", "output JSON path (- for stdout)")
	reps := flag.Int("reps", 3, "repetitions per cell (best wall time wins)")
	gate403 := flag.Float64("gate403", 0, "also measure the scaled 403.gcc steady-state workload and fail if cpi cycle overhead exceeds this percentage (0 disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement runs (for dispatch tuning)")
	statsOut := flag.String("statsout", "ANALYSIS_stats.json", "write per-workload Table 2 instrumentation statistics (every registered backend, pruned and unpruned) to this JSON path (empty disables)")
	noPromote := flag.Bool("nopromote", false, "compile without register promotion (for paired promoted-vs-unpromoted runs on the same machine; the cell names gain a -nopromote suffix)")
	noBlocks := flag.Bool("noblocks", false, "predecode without block compilation (for paired A/B runs on the same machine; the cell names gain a -noblocks suffix)")
	regress := flag.Float64("regress", 0, "fail if any vanilla micro cell's steps/sec regresses by more than this percentage against the baseline loaded from -out (0 disables; CI runs this against the committed BENCH_vm.json)")
	flag.Parse()

	var base map[string]Row
	if *out != "-" {
		base = loadBaseline(*out)
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfgs := []struct {
		name string
		cfg  core.Config
	}{
		{"vanilla", core.Config{DEP: true}},
		{"cpi", core.Config{Protect: core.CPI, DEP: true}},
		{"pac", core.Config{Backend: "pac", DEP: true}},
	}
	if *noPromote {
		for i := range cfgs {
			cfgs[i].name += "-nopromote"
			cfgs[i].cfg.NoPromote = true
		}
	}
	if *noBlocks {
		for i := range cfgs {
			cfgs[i].name += "-noblocks"
			cfgs[i].cfg.NoBlockCompile = true
		}
	}
	rep := Report{Reps: *reps}
	bench := func(name, src string) []Row {
		var rows []Row
		var vanCycles int64
		for _, c := range cfgs {
			row, err := measure(name, src, c.name, c.cfg, *reps)
			if err != nil {
				fail(err)
			}
			delta := ""
			if br, ok := base[row.Workload+"/"+row.Config]; ok && br.StepsPerSec > 0 {
				row.BaselineStepsPerSec = br.StepsPerSec
				row.SpeedupX = row.StepsPerSec / br.StepsPerSec
				delta = fmt.Sprintf("  %+6.1f%% vs baseline (%.2fx)",
					100*(row.SpeedupX-1), row.SpeedupX)
			}
			ovh := ""
			if c.cfg.Protect == core.Vanilla && c.cfg.Backend == "" {
				vanCycles = row.Cycles
			} else if vanCycles > 0 {
				row.OverheadPct = 100 * float64(row.Cycles-vanCycles) / float64(vanCycles)
				ovh = fmt.Sprintf("  ovh %+5.1f%%", row.OverheadPct)
			}
			rep.Rows = append(rep.Rows, row)
			rows = append(rows, row)
			fmt.Printf("%-14s %-8s %12.0f steps/sec %8.2f ns/step  %5.1f%% block%s%s\n",
				row.Workload, row.Config, row.StepsPerSec, row.NsPerStep,
				100*row.BlockFrac, ovh, delta)
		}
		return rows
	}
	var microRows []Row
	for _, w := range workloads.Micro() {
		microRows = append(microRows, bench(w.Name, w.Src)...)
	}
	if *regress > 0 {
		// Throughput regression gate: every vanilla micro cell must stay
		// within the allowance of the committed baseline.
		var bad []string
		for _, row := range microRows {
			if row.Config != "vanilla" || row.BaselineStepsPerSec <= 0 {
				continue
			}
			if drop := 100 * (1 - row.StepsPerSec/row.BaselineStepsPerSec); drop > *regress {
				bad = append(bad, fmt.Sprintf("%s/%s -%.1f%%", row.Workload, row.Config, drop))
			}
		}
		if len(bad) > 0 {
			fail(fmt.Errorf("regress gate: vanilla micro throughput dropped more than %.0f%% vs baseline: %v", *regress, bad))
		}
	}
	if *gate403 > 0 {
		w, ok := workloads.ByName(workloads.Spec(), "403.gcc")
		if !ok {
			fail(fmt.Errorf("gate403: workload 403.gcc missing"))
		}
		for _, row := range bench(w.Name, w.Src) {
			if row.Config == "cpi" && row.OverheadPct > *gate403 {
				fail(fmt.Errorf("gate403: 403.gcc cpi cycle overhead %.2f%% exceeds the %.0f%% gate",
					row.OverheadPct, *gate403))
			}
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
	} else {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *statsOut != "" {
		srep, err := collectStats()
		if err != nil {
			fail(err)
		}
		// Surface the pruning wins in the text output: one line per cell
		// where the points-to analysis shrank the instrumented set.
		pruned := map[string]StatRow{}
		for _, r := range srep.Rows {
			if r.PointsTo {
				pruned[r.Workload+"/"+r.Config] = r
			}
		}
		for _, r := range srep.Rows {
			if r.PointsTo {
				continue
			}
			if p, ok := pruned[r.Workload+"/"+r.Config]; ok && p.Instrumented < r.Instrumented {
				fmt.Printf("%-14s %-4s MO%% %5.2f -> %5.2f with points-to pruning (%d -> %d of %d memops)\n",
					r.Workload, r.Config, r.MOPct, p.MOPct,
					r.Instrumented, p.Instrumented, r.MemOps)
			}
		}
		sb, err := json.MarshalIndent(srep, "", "  ")
		if err != nil {
			fail(err)
		}
		sb = append(sb, '\n')
		if err := os.WriteFile(*statsOut, sb, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *statsOut)
	}
}
