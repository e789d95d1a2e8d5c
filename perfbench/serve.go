package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The open-loop arrival rates, in requests per second: the light rate of
// the measured rounds and the heavy rate of the traced run. One worker
// serves 550–750 req/s as the host's speed drifts, so the light rate loads
// it to under 20% and the heavy rate to 25–35%, where waiting behind the
// busy worker shows in the queue wait.
const (
	lightRate = 100.0
	heavyRate = 200.0
)

// serveWorkers is the size of the serving pool. One worker plus the arrival
// generator keep the process within the two cores of the host the rates
// were chosen on; a worker per core oversubscribes them.
const serveWorkers = 1

// serveMix is the page mix of the served traffic (relative weights).
var serveMix = map[string]int{"serve-static": 70, "serve-wsgi": 25, "serve-dynamic": 5}

// servedConfig is the configuration requests are served under: cpi, the
// paper's full protection and the one with the largest serving overhead.
const servedConfig = "cpi"

// servePage is one page of the mix, compiled under the served
// configuration, with its machine pool and its fresh-machine reference.
type servePage struct {
	name    string
	weight  int
	src     string
	prog    *core.Program
	code    *vm.Code
	pool    *vm.Pool
	refExit int64
	refOut  uint64
}

// serveState is what set-up produces.
type serveState struct {
	pages    []*servePage
	overhead map[string]float64 // cycle_ovh_<backend>_pct of the mix
}

// serveConfigs are vanilla and every registered backend, for the mix's
// cycle overhead; requests are served under servedConfig only.
func serveConfigs() []string { return append([]string{"vanilla"}, core.Backends()...) }

// serveSetup compiles and predecodes every page under every configuration,
// runs each once on a fresh machine as the reference, and warms each served
// page's pool with one machine per worker. Compilation goes through
// compileStaged, which is core.Compile's sequence of calls; tr (nil outside
// the traced run) and c receive its spans and counts, and in the traced
// run each staged compilation is checked against core.Compile.
func serveSetup(workers int, tr *tracer, c *counts) (*serveState, error) {
	st := &serveState{overhead: map[string]float64{}}
	weighted := map[string]float64{}
	for _, wp := range workloads.WebServe() {
		pg := &servePage{name: wp.Name, weight: serveMix[wp.Name], src: wp.Src}
		if pg.weight == 0 {
			continue
		}
		for _, name := range serveConfigs() {
			cfg, err := core.ConfigForName(name)
			if err != nil {
				return nil, err
			}
			id := pg.name + "/" + name
			root := tr.begin("setup", id, -1)
			prog, code, err := compileStaged(tr, c, root, id, pg.src, cfg)
			if err != nil {
				tr.end(root)
				return nil, err
			}
			m, err := newMachine(tr, c, root, id, prog, code)
			if err != nil {
				tr.end(root)
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			r := runMain(tr, c, root, id, m)
			tr.end(root)
			if r.Trap != vm.TrapExit {
				return nil, fmt.Errorf("%s: reference run: %v", id, r.Err)
			}
			if tr != nil {
				if err := checkStaged(prog, code, pg.src, cfg); err != nil {
					return nil, fmt.Errorf("%s: %w", id, err)
				}
			}
			weighted[name] += float64(pg.weight) * float64(r.Cycles)
			if name == servedConfig {
				pg.prog, pg.code = prog, code
				pg.refExit, pg.refOut = r.ExitCode, outputHash(r.Output)
			}
		}
		pg.pool = vm.NewPool(pg.prog.IR, pg.code, pg.prog.VMConfig())
		var warm []*vm.Machine
		for i := 0; i < workers; i++ {
			m, err := pg.pool.Get()
			if err != nil {
				return nil, fmt.Errorf("%s: pool warm-up: %w", pg.name, err)
			}
			warm = append(warm, m)
		}
		for _, m := range warm {
			pg.pool.Put(m)
		}
		st.pages = append(st.pages, pg)
	}
	for _, name := range core.Backends() {
		st.overhead["cycle_ovh_"+name+"_pct"] = 100 * (weighted[name]/weighted["vanilla"] - 1)
	}
	return st, nil
}

// pick draws a page from the mix.
func (st *serveState) pick(rng *rand.Rand) *servePage {
	total := 0
	for _, pg := range st.pages {
		total += pg.weight
	}
	k := rng.IntN(total)
	for _, pg := range st.pages {
		if k < pg.weight {
			return pg
		}
		k -= pg.weight
	}
	panic("unreachable: weights sum to total")
}

// serve runs one request on a pooled machine and reports whether it
// matched the page's fresh-machine reference. tr and c are nil outside the
// traced run.
func (pg *servePage) serve(tr *tracer, c *counts, parent int32, id string) bool {
	s := tr.begin("pool.get", id, parent)
	m, err := pg.pool.Get()
	tr.end(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve %s: %v\n", id, err)
		return false
	}
	var r *vm.Result
	if c != nil {
		r = runMain(tr, c, parent, id, m)
	} else {
		r = m.Run("main")
	}
	s = tr.begin("reset", id, parent)
	pg.pool.Put(m)
	tr.end(s)
	ok := r.Trap == vm.TrapExit && r.ExitCode == pg.refExit && outputHash(r.Output) == pg.refOut
	if !ok {
		fmt.Fprintf(os.Stderr, "serve %s: exit %d (%v), want the reference exit %d and output\n",
			id, r.ExitCode, r.Trap, pg.refExit)
	}
	return ok
}

// closedLoop keeps one request in flight per worker until d has passed and
// returns the requests completed, the failures and the elapsed time.
func closedLoop(st *serveState, workers int, seed uint64, round int, d time.Duration) (n, failed int64, took time.Duration) {
	var done, bad atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(round)<<8|uint64(w)))
			for time.Since(start) < d {
				if !st.pick(rng).serve(nil, nil, -1, "") {
					bad.Add(1)
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return done.Load(), bad.Load(), time.Since(start)
}

// poissonArrivals returns the due times of a Poisson arrival process at
// rate per second over d, measured from the start of the phase.
func poissonArrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// reqTimes is one open-loop request's timeline, from the phase start.
type reqTimes struct {
	sent, start, end time.Duration
	served, ok       bool
}

// phase is the outcome of one open-loop phase.
type phase struct {
	due  []time.Duration
	reqs []reqTimes
	// Backlog (requests sent but not completed) when half of the requests
	// had been sent and when the last one was.
	midBacklog, endBacklog int64
	overloaded             bool
}

// backlogGrew reports whether a phase's backlog grew to its end: the
// backlog at the last arrival exceeds one and a half times the backlog at
// the middle arrival and is large — at least four requests per worker and
// 2% of the phase. A stable server holds a backlog of a few requests, and
// one short stall does not double it.
func backlogGrew(mid, end int64, n, workers int) bool {
	return end > mid+mid/2 && end >= int64(max(4*workers, n/50))
}

// openLoop sends request i at due[i] from the phase start, whether or not
// earlier requests have finished, to a pool of workers calling serve(w, i,
// t0) (t0 is the phase start). Each request is timed from when it was due.
// The generator's own lateness is recorded as sent-due. If the backlog grew
// to the end the phase is overloaded: requests not started by then are
// dropped.
func openLoop(due []time.Duration, workers int, serve func(w, i int, t0 time.Time) bool) *phase {
	n := len(due)
	ph := &phase{due: due, reqs: make([]reqTimes, n)}
	queue := make(chan int, n) // one slot per request: sending never blocks the generator
	var done atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				if abort.Load() {
					continue
				}
				rq := &ph.reqs[i]
				rq.start = time.Since(t0)
				rq.ok = serve(w, i, t0)
				rq.end = time.Since(t0)
				rq.served = true
				done.Add(1)
			}
		}(w)
	}
	for i, d := range due {
		if wait := d - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		ph.reqs[i].sent = time.Since(t0)
		queue <- i
		if i == n/2 {
			ph.midBacklog = int64(i+1) - done.Load()
		}
	}
	ph.endBacklog = int64(n) - done.Load()
	ph.overloaded = backlogGrew(ph.midBacklog, ph.endBacklog, n, workers)
	abort.Store(ph.overloaded)
	close(queue)
	wg.Wait()
	return ph
}

// failed counts the phase's failed requests: all of them when the phase
// was overloaded, otherwise those whose output was wrong.
func (ph *phase) failed() int64 {
	if ph.overloaded {
		return int64(len(ph.reqs))
	}
	var f int64
	for _, r := range ph.reqs {
		if !r.ok {
			f++
		}
	}
	return f
}

// times returns each served request's latency from when it was due, its
// queue wait (due to start), service time and generator lag (due to sent),
// in milliseconds.
func (ph *phase) times() (lat, queue, service, lag []float64) {
	for i, r := range ph.reqs {
		if !r.served {
			continue
		}
		lat = append(lat, ms(r.end-ph.due[i]))
		queue = append(queue, ms(r.start-ph.due[i]))
		service = append(service, ms(r.end-r.start))
		lag = append(lag, ms(r.sent-ph.due[i]))
	}
	return
}

// scheduled draws an open-loop phase's arrivals and their pages.
func scheduled(st *serveState, seed uint64, round int, rate float64, d time.Duration) ([]time.Duration, []*servePage) {
	rng := rand.New(rand.NewPCG(seed, 0x0be7_0000+uint64(round)))
	due := poissonArrivals(rng, rate, d)
	pages := make([]*servePage, len(due))
	for i := range pages {
		pages[i] = st.pick(rng)
	}
	return due, pages
}

// The serve workload measures in rounds: three fresh set-ups (the last one
// is served from), a closed loop, then an open loop, long enough that even
// at the light rate a round's p97.5 has several requests beyond it.
const (
	serveClosed = 2 * time.Second
	serveOpen   = 3 * time.Second
)

// runServe measures rounds: ops_per_s is the closed loop's request rate,
// p50_ms and tail_ms (p97.5) the open loop's latencies, setup_s the median
// of the round's set-ups.
func runServe(opt options) (*result, error) {
	workers, rate := serveWorkers, lightRate
	// One processor beyond the workers, so the arrival generator's timer
	// fires on time while every worker is busy.
	runtime.GOMAXPROCS(workers + 1)
	if opt.trace {
		return traceServe(opt, heavyRate, workers)
	}
	res := &result{values: map[string]float64{}}
	var lags []float64
	err := measure(opt, res.values, func(r int) (map[string]float64, error) {
		var st *serveState
		var setups []float64
		for i := 0; i < 3; i++ {
			s, d, err := timeSetup(func() (*serveState, error) { return serveSetup(workers, nil, &counts{}) })
			if err != nil {
				return nil, err
			}
			st, setups = s, append(setups, d)
		}
		for k, v := range st.overhead {
			res.values[k] = v
		}
		n, bad, took := closedLoop(st, workers, uint64(opt.seed), r, serveClosed)
		res.attempted += n
		res.failed += bad

		due, pages := scheduled(st, uint64(opt.seed), r, rate, serveOpen)
		ph := openLoop(due, workers, func(w, i int, _ time.Time) bool { return pages[i].serve(nil, nil, -1, "") })
		res.attempted += int64(len(due))
		res.failed += ph.failed()
		if ph.overloaded {
			fmt.Fprintf(os.Stderr, "serve: round %d overloaded at %.0f req/s (backlog %d at mid-phase, %d at the end)\n",
				r, rate, ph.midBacklog, ph.endBacklog)
		}
		lat, _, _, lag := ph.times()
		lags = append(lags, lag...)
		return map[string]float64{"setup_s": median(setups), "ops_per_s": float64(n) / took.Seconds(),
			"p50_ms": percentile(lat, 50), "tail_ms": percentile(lat, 97.5)}, nil
	})
	res.correct = res.failed == 0
	fmt.Fprintf(os.Stderr, "serve: open loop at %.0f req/s; generator lag p50 %.3f ms, p99 %.3f ms\n",
		rate, percentile(lags, 50), percentile(lags, 99))
	return res, err
}

// serveBatch is the traced run's fixed batch for the tracing overhead:
// this many requests served one after another.
const serveBatch = 500

// traceServe traces set-up, a fixed batch of serial requests (also run
// untraced, for the tracing overhead), and an open-loop phase at rate (the
// heavy rate) lasting half the run.
func traceServe(opt options, rate float64, workers int) (*result, error) {
	tr, c := newTracer(), &counts{}
	res := &result{tracer: tr, values: map[string]float64{}}
	st, err := serveSetup(workers, tr, c)
	if err != nil {
		return nil, err
	}
	batch := func(tr *tracer, c *counts) (time.Duration, int64) {
		rng := rand.New(rand.NewPCG(uint64(opt.seed), 0xba7c))
		var bad int64
		t := time.Now()
		for i := 0; i < serveBatch; i++ {
			pg := st.pick(rng)
			id := fmt.Sprintf("batch-%d/%s", i, strings.TrimPrefix(pg.name, "serve-"))
			root := tr.begin("request", id, -1)
			if !pg.serve(tr, c, root, id) {
				bad++
			}
			tr.end(root)
		}
		return time.Since(t), bad
	}
	before := readRuntime()
	untraced, bad := batch(nil, nil)
	after := readRuntime()
	traced, badT := batch(tr, c)
	res.failed += bad + badT

	half := time.Duration(opt.seconds * float64(time.Second) / 2)
	due, pages := scheduled(st, uint64(opt.seed), 0, rate, half)
	ph := openLoop(due, workers, func(w, i int, t0 time.Time) bool {
		id := fmt.Sprintf("req-%d/%s", i, strings.TrimPrefix(pages[i].name, "serve-"))
		dueAt := int64(t0.Sub(tr.epoch) + due[i])
		root := tr.add("request", id, -1, dueAt, dueAt)
		tr.add("queue", id, root, dueAt, tr.now())
		ok := pages[i].serve(tr, c, root, id)
		tr.end(root)
		return ok
	})
	res.failed += ph.failed()
	_, queue, service, lag := ph.times()

	var reuses, news int64
	for _, pg := range st.pages {
		r, n := pg.pool.Stats()
		reuses, news = reuses+r, news+n
	}
	res.attempted = int64(2*serveBatch + len(due))
	res.correct = res.failed == 0
	self := selfMs(tr.summary())
	putSelfTimes(res.values, self)
	c.put(res.values, self["run"])
	res.values["pool.reuse_frac"] = float64(reuses) / float64(reuses+news)
	res.values["serve.queue_ms"] = mean(queue)
	res.values["serve.service_ms"] = mean(service)
	res.values["serve.gen_lag_ms"] = mean(lag)
	putRuntime(res.values, before, after, serveBatch)
	putTraceCost(res.values, tr, traced, untraced)
	return res, nil
}
