package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ripe"
	"repro/internal/vm"
)

// ripeSeed is the attacks' layout seed, the one cmd/ripe uses: outcomes
// are then fixed per attack, and the run's seed only orders the attacks.
const ripeSeed = 42

// ripeItem is one attack form mounted against one defense.
type ripeItem struct {
	a   ripe.Attack
	d   ripe.Defense
	id  string
	src string
	cfg core.Config // the configuration ripe.Run compiles the victim with
}

func ripeItems() ([]ripeItem, error) {
	var items []ripeItem
	for _, name := range ripeDefenses {
		d, err := ripe.DefenseByName(name)
		if err != nil {
			return nil, err
		}
		cfg := d.Cfg
		cfg.Seed, cfg.NoPromote = ripeSeed, true
		for _, a := range ripe.All() {
			items = append(items, ripeItem{a: a, d: d, id: name + ":" + a.String(), src: ripe.Source(a), cfg: cfg})
		}
	}
	return items, nil
}

// ripeMachines is how many machines ripe.Run builds for an attack: the
// layout probe and the attacked run, plus the address-guess machine of a
// direct attack.
func ripeMachines(a ripe.Attack) int {
	if a.Technique == ripe.Direct {
		return 3
	}
	return 2
}

// ripeSetup compiles, predecodes and builds a machine for every victim
// program under every defense. With ref set it also runs each victim once
// without an attack (outside the timed part) and returns its cycles; a
// victim that does not exit normally is an error.
func ripeSetup(items []ripeItem, ref bool) (time.Duration, []int64, error) {
	var took time.Duration
	var cycles []int64
	for _, it := range items {
		t := time.Now()
		p, err := core.Compile(it.src, it.cfg)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", it.id, err)
		}
		m, err := p.NewMachine()
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", it.id, err)
		}
		took += time.Since(t)
		if ref {
			r := m.Run("main")
			if r.Trap != vm.TrapExit {
				return 0, nil, fmt.Errorf("%s: benign run: %v", it.id, r.Err)
			}
			cycles = append(cycles, r.Cycles)
		}
	}
	return took, cycles, nil
}

// victimOverheads is each backend's average cycle overhead over the "none"
// defense on the victims' benign runs.
func victimOverheads(items []ripeItem, cycles []int64) map[string]float64 {
	base := map[string]int64{}
	for i, it := range items {
		if it.d.Name == "none" {
			base[it.a.String()] = cycles[i]
		}
	}
	sum, n := map[string]float64{}, map[string]int{}
	for i, it := range items {
		if it.d.Name != "none" {
			sum[it.d.Name] += 100 * (float64(cycles[i])/float64(base[it.a.String()]) - 1)
			n[it.d.Name]++
		}
	}
	v := map[string]float64{}
	for name, s := range sum {
		v["cycle_ovh_"+name+"_pct"] = s / float64(n[name])
	}
	return v
}

// ripeTally counts one pass's outcomes per defense.
type ripeTally map[string][3]int64

// add records one attack and reports whether it failed: it returned an
// error, or it hijacked control under a protecting defense.
func (t ripeTally) add(it ripeItem, r ripe.Result, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ripe %s: %v\n", it.id, err)
		return true
	}
	c := t[it.d.Name]
	c[r.Outcome]++
	t[it.d.Name] = c
	if it.d.Name != "none" && r.Outcome == ripe.Success {
		fmt.Fprintf(os.Stderr, "ripe %s: attack succeeded\n", it.id)
		return true
	}
	return false
}

// valid reports whether attacks still land without a defense; a pass in
// which none does cannot show that the defenses prevent anything.
func (t ripeTally) valid() bool { return t["none"][ripe.Success] > 0 }

func (t ripeTally) put(v map[string]float64) {
	for _, d := range ripeDefenses {
		c := t[d]
		v["ripe.hijacked."+d] = float64(c[ripe.Success])
		v["ripe.prevented."+d] = float64(c[ripe.Prevented])
		v["ripe.failed."+d] = float64(c[ripe.Failed])
	}
}

// runRipe mounts every attack once per pass, each pass after a fresh
// set-up and in a seeded order. The first set-up also runs the victims as
// the reference for the cycle overheads.
func runRipe(opt options) (*result, error) {
	items, err := ripeItems()
	if err != nil {
		return nil, err
	}
	if opt.trace {
		return traceRipe(opt, items)
	}
	rng := rand.New(rand.NewPCG(uint64(opt.seed), 0x121be))
	res := &result{correct: true, values: map[string]float64{}}
	var first ripeTally
	err = measure(opt, res.values, func(n int) (map[string]float64, error) {
		setup, cycles, err := ripeSetup(items, n == 0)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			for k, v := range victimOverheads(items, cycles) {
				res.values[k] = v
			}
		}
		tally := ripeTally{}
		lat := make([]float64, 0, len(items))
		start := time.Now()
		for _, k := range rng.Perm(len(items)) {
			it := items[k]
			t := time.Now()
			r, err := ripe.Run(it.a, it.d, ripeSeed)
			lat = append(lat, ms(time.Since(t)))
			if tally.add(it, r, err) {
				res.failed++
			}
		}
		rate := float64(len(items)) / time.Since(start).Seconds()
		res.attempted += int64(len(items))
		if !tally.valid() {
			fmt.Fprintln(os.Stderr, "ripe: no attack succeeded without a defense; the run is invalid")
			res.correct = false
		}
		if first == nil {
			first = tally
		} else if fmt.Sprint(tally) != fmt.Sprint(first) {
			fmt.Fprintln(os.Stderr, "ripe: outcome counts differ between passes")
			res.correct = false
		}
		return map[string]float64{"setup_s": setup.Seconds(), "ops_per_s": rate,
			"p50_ms": percentile(lat, 50), "tail_ms": percentile(lat, 90)}, nil
	})
	res.correct = res.correct && res.failed == 0
	fmt.Fprintf(os.Stderr, "ripe: outcomes per pass %v\n", first)
	return res, err
}

// traceRipe times every attack once untraced and once traced. ripe.Run is
// one opaque call, so beside each attack the traced run repeats the calls
// ripe.Run makes into the lower layers — one compile (stage by stage here),
// its predecode, the same number of fresh machines and one run of the
// victim — and times them. The untraced pass makes the same calls through
// core.Compile, without spans.
func traceRipe(opt options, items []ripeItem) (*result, error) {
	order := rand.New(rand.NewPCG(uint64(opt.seed), 0x121be)).Perm(len(items))

	before := readRuntime()
	t := time.Now()
	for _, k := range order {
		it := items[k]
		p, err := core.Compile(it.src, it.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.id, err)
		}
		var m *vm.Machine
		for i := 0; i < ripeMachines(it.a); i++ {
			if m, err = p.NewMachine(); err != nil {
				return nil, fmt.Errorf("%s: %w", it.id, err)
			}
		}
		m.Run("main")
		if _, err := ripe.Run(it.a, it.d, ripeSeed); err != nil {
			return nil, fmt.Errorf("%s: %w", it.id, err)
		}
	}
	untraced := time.Since(t)
	after := readRuntime()

	tr, c := newTracer(), &counts{}
	res := &result{tracer: tr, values: map[string]float64{}}
	tally := ripeTally{}
	var checking time.Duration
	t = time.Now()
	for _, k := range order {
		it := items[k]
		root := tr.begin("attack", it.id, -1)
		prog, code, err := compileStaged(tr, c, root, it.id, it.src, it.cfg)
		if err != nil {
			return nil, err
		}
		var m *vm.Machine
		for i := 0; i < ripeMachines(it.a); i++ {
			if m, err = newMachine(tr, c, root, it.id, prog, code); err != nil {
				return nil, fmt.Errorf("%s: %w", it.id, err)
			}
		}
		runMain(tr, c, root, it.id, m)
		s := tr.begin("ripe.attack", it.id, root)
		r, err := ripe.Run(it.a, it.d, ripeSeed)
		tr.end(s)
		tr.end(root)
		if tally.add(it, r, err) {
			res.failed++
		}

		cs := time.Now()
		if err := checkStaged(prog, code, it.src, it.cfg); err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "ripe %s: %v\n", it.id, err)
		}
		checking += time.Since(cs)
	}
	traced := time.Since(t) - checking

	res.attempted = int64(len(items))
	res.correct = res.failed == 0 && tally.valid()
	tally.put(res.values)
	self := selfMs(tr.summary())
	putSelfTimes(res.values, self)
	c.put(res.values, self["run"])
	putRuntime(res.values, before, after, int64(len(items)))
	putTraceCost(res.values, tr, traced, untraced)
	return res, nil
}
