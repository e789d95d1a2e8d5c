// Command perfbench is the repository's benchmark: one command, three
// workloads, every output checked, and a separate traced run that splits
// the cost by layer. It is a module of its own so that the repository's
// tests never build it; it compiles against the parent module's packages.
//
//	bash perfbench/run.sh --workload <spec|serve|ripe> \
//	    --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set below, measured with no spans recorded; with --trace 1
// they are the per-layer set, taken from a traced run that also writes its
// spans and a per-layer self-time summary to -trace-dir.
//
// # Workloads and why each was chosen
//
// The paper judges CPI by three measurements, and each workload stands for
// one of them. All load comes from this one process, and every workload
// executes one program at a time: spec and ripe run serially and serve
// serves from a pool with one worker beside the arrival generator.
//
//   - spec: the 19 SPEC stand-ins (workloads.Spec), each run on a fresh
//     machine under vanilla and every registered backend (cps, cpi, pac) —
//     the paper's Table 1. Runs take 6–200 ms against about 1 ms of
//     compile, so execution dominates: this workload exposes the
//     interpreter, the execution tiers and the enforcers, and compile shows
//     only in setup_s. The seed shuffles the order of the 76 runs in each
//     pass; the programs take no input.
//   - serve: the serving pages (workloads.WebServe) in the
//     static=70,wsgi=25,dynamic=5 mix under cpi, the configuration with the
//     paper's largest serving overhead (Table 4). Requests go through
//     vm.Pool (Get, Run, Put/Reset), so machine construction is amortised
//     away and reset, the pool and short runs show. Each round has a closed
//     loop of one worker (ops_per_s is its request rate, the capacity)
//     followed by a seeded open-loop Poisson phase at the light rate of
//     100 req/s; p50_ms comes from that phase and times each
//     request from when it was due. The traced run's open loop runs at the
//     heavy rate of 200 req/s, where waiting behind the busy worker shows in
//     serve.queue_ms. A heavy-rate workload was tried and left out: its
//     tail amplifies the host's speed drift through queueing, and its p90
//     swung from 4.3 to 15.9 ms over ten runs, beyond any usable bound.
//   - ripe: all 741 RIPE attack forms (ripe.Run) under none, cps, cpi and
//     pac. Each attack compiles a fresh program and builds 2–3 machines for
//     about 20 steps of execution, so this workload exposes compile,
//     predecode and vm.NewShared, which the others barely touch. The seed
//     shuffles the attack order; the attacks' own layout seed is fixed at
//     42, the seed of cmd/ripe, so outcome counts repeat exactly (a random
//     layout seed would let pac's modeled 2^-16 forgery chance land).
//
// Every workload reports every end-to-end metric:
//
//	setup_s            s     building what a pass runs: spec compiles and predecodes
//	                         76 programs; serve compiles and predecodes 3 pages under
//	                         4 configurations, runs each once as the reference and
//	                         warms the pools; ripe compiles, predecodes and builds
//	                         one machine for each of the 2964 victims
//	host_heap_mb       MB    mean live Go heap of the benchmark process
//	ops_per_s          1/s   spec: simulated steps per host second;
//	                         serve: closed-loop requests per second;
//	                         ripe: attacks per second
//	p50_ms             ms    spec: one program run on a fresh machine;
//	                         serve: one open-loop request, from when it was due;
//	                         ripe: one attack
//	cycle_ovh_*_pct    %     simulated-cycle overhead over vanilla:
//	                         spec: the Table 1 average over the 19 programs;
//	                         serve: the mix-weighted overhead of the served pages;
//	                         ripe: the average over the victim programs' benign runs
//
// Each workload measures in passes (spec, ripe: every program or attack
// once; serve: a round of set-up, closed loop and open loop) that all have
// the same structure, sets up afresh before each one, and reports each
// timing metric as its median over the passes after one warm-up pass (see
// measure): the host's speed drifts by tens of percent over seconds, and
// the median over passes spread across the run passes over a slow stretch.
// Each pass's tail latency (tail_ms: p90 of a spec pass's 76 runs or of a
// ripe pass's attacks, p97.5 of a serve round, the middle of its dynamic
// pages) is printed to standard error but not reported as a metric: on the
// 2-core host this benchmark was built on, it swung by 16–53% between runs
// of the same code, beyond the largest bound a metric may have. Cycle
// overheads and every count below are deterministic and repeat exactly
// between runs.
//
// # Layers, their metrics, and what each should move
//
// The traced run times each public call into each layer from outside the
// layer, so the timed run carries no tracing cost. A layer's ".ms" metric
// is the summed self time of its spans over the traced run's fixed work.
//
//	layer (module)                 metrics                                  should move                        ~no effect on
//	minic (parser, sema)           parse.ms sema.ms                         ripe ops_per_s; setup_s            spec ops_per_s
//	irgen                          irgen.ms irgen.instrs                    same as above                      same as above
//	analysis (points-to)           pointsto.ms .objects .sensitive          same; cycle_ovh_* via fewer        same
//	                                                                        instrumented operations
//	instrument + ir.Verify         instrument.ms .memops .instrumented      ripe ops_per_s; spec cycle_ovh_*   serve latency
//	                               .checks verify.ms
//	vm predecode                   predecode.ms                             ripe ops_per_s; setup_s            spec ops_per_s
//	vm machine                     machine_new.ms machine_new.count         ripe ops_per_s                     serve (pooled)
//	vm run (dispatch, blocks,      run.ms run.steps run.cycles              spec ops_per_s; serve p50_ms and   ripe ops_per_s
//	memops)                        run.dispatches run.block_frac            ops_per_s
//	                               run.ns_per_step
//	vm enforcers (backend, sps,    run.pac_signs run.pac_auths              cycle_ovh_* (spec); serve p50_ms   vanilla runs
//	pac)                           run.sweep_cycles run.sps_bytes_peak
//	vm pool/reset                  pool.get.ms reset.ms pool.reuse_frac     serve p50_ms and ops_per_s         spec (fresh machines)
//	serve queue                    serve.queue_ms serve.service_ms          serve traced queue wait            serve p50_ms
//	                               serve.gen_lag_ms
//	ripe                           ripe.attack_ms ripe.{hijacked,           ripe ops_per_s                     spec
//	                               prevented,failed}.<defense>
//	Go runtime                     gc.cycles gc.pause_ms                    serve latency;                     cycle counts
//	                               alloc.objs_per_op alloc.bytes_per_op     host_heap_mb
//
// The trace also reports its own cost: trace.overhead_ms is the traced wall
// time of a fixed batch of work minus the untraced wall time of the same
// batch. In the traced run every program is compiled stage by stage
// (parser.Parse, sema.Check, irgen.LowerWith, analysis.SolvePointsTo,
// instrument.*, Verify, vm.PredecodeWith), and the run fails if the IR
// print or analysis.Stats ever differ from core.Compile's for the same
// program and configuration, so the outside-in split stays honest if
// core.Compile changes.
//
// The committed BENCH_vm.json and BENCH_serve.json are records from another
// host and run shape; they are not baselines for this benchmark. Compare
// two commits only by running this benchmark on both, on one host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units, in the order of
// BENCHMARK.json; every workload reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cycle_ovh_cps_pct", "%"},
	{"cycle_ovh_cpi_pct", "%"},
	{"cycle_ovh_pac_pct", "%"},
}

// ripeDefenses are the defenses the ripe workload mounts attacks against.
var ripeDefenses = []string{"none", "cps", "cpi", "pac"}

// perLayer lists the per-layer metrics of the traced run and their units.
// Every traced run reports all of them; a layer a workload does not reach
// reads 0 there.
var perLayer = func() []struct{ name, unit string } {
	ls := []struct{ name, unit string }{
		{"parse.ms", "ms"}, {"sema.ms", "ms"},
		{"irgen.ms", "ms"}, {"irgen.instrs", "count"},
		{"pointsto.ms", "ms"}, {"pointsto.objects", "count"}, {"pointsto.sensitive", "count"},
		{"instrument.ms", "ms"}, {"instrument.memops", "count"},
		{"instrument.instrumented", "count"}, {"instrument.checks", "count"},
		{"verify.ms", "ms"},
		{"predecode.ms", "ms"},
		{"machine_new.ms", "ms"}, {"machine_new.count", "count"},
		{"run.ms", "ms"}, {"run.steps", "count"}, {"run.cycles", "count"},
		{"run.dispatches", "count"}, {"run.block_frac", "ratio"}, {"run.ns_per_step", "ns"},
		{"run.pac_signs", "count"}, {"run.pac_auths", "count"},
		{"run.sweep_cycles", "count"}, {"run.sps_bytes_peak", "bytes"},
		{"pool.get.ms", "ms"}, {"reset.ms", "ms"}, {"pool.reuse_frac", "ratio"},
		{"serve.queue_ms", "ms"}, {"serve.service_ms", "ms"}, {"serve.gen_lag_ms", "ms"},
		{"ripe.attack_ms", "ms"},
	}
	for _, kind := range []string{"hijacked", "prevented", "failed"} {
		for _, d := range ripeDefenses {
			ls = append(ls, struct{ name, unit string }{"ripe." + kind + "." + d, "count"})
		}
	}
	return append(ls, []struct{ name, unit string }{
		{"gc.cycles", "count"}, {"gc.pause_ms", "ms"},
		{"alloc.objs_per_op", "count"}, {"alloc.bytes_per_op", "bytes"},
		{"trace.spans", "count"}, {"trace.wall_ms", "ms"},
		{"trace.untraced_ms", "ms"}, {"trace.overhead_ms", "ms"},
	}...)
}()

// options are the command-line settings of one run.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	heap     *heapSampler
}

// result is what a workload hands back: the counts and the raw metric
// values (units are attached from the tables above).
type result struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
	tracer            *tracer // traced runs only
}

func main() {
	workload := flag.String("workload", "", "workload: spec, serve or ripe")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "measured duration of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}

	var run func(options) (*result, error)
	switch *workload {
	case "spec":
		run = runSpec
	case "serve":
		run = runServe
	case "ripe":
		run = runRipe
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want spec, serve or ripe)\n", *workload)
		os.Exit(2)
	}

	opt.heap = startHeapSampler()
	res, err := run(opt)
	opt.heap.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	out := report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	names := endToEnd
	if opt.trace {
		names = perLayer
		if err := writeTrace(opt, *workload, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	for _, m := range names {
		v, ok := res.values[m.name]
		if !ok && !opt.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not report %s\n", *workload, m.name)
			os.Exit(1)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeTrace writes the traced run's spans and self-time summary as one
// JSON document and prints the summary to standard error.
func writeTrace(opt options, workload string, res *result) error {
	tr := res.tracer
	sum := tr.summary()
	printSummary(os.Stderr, sum, res.values)
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		GoMaxP   int                `json:"gomaxprocs"`
		Summary  []layerSummary     `json:"summary"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{workload, opt.seed, runtime.GOMAXPROCS(0), sum, res.values, tr.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d-%s.json",
		workload, opt.seed, time.Now().UTC().Format("20060102T150405")))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintln(os.Stderr, "trace written to", path)
	return nil
}
