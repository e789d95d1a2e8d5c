package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// The spec workload's cycle overheads must be the paper's Table 1 average
// as the harness computes it, so the benchmark and Table 1 stay one number.
func TestSpecCycleOverheadIsTable1Average(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the SPEC suite twice")
	}
	cells, err := specSetup()
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]specOut, len(cells))
	for i, c := range cells {
		r, err := c.prog.Run()
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = outOf(r)
	}
	if f := checkSpec(cells, outs, nil); f != 0 {
		t.Fatalf("%d spec runs failed", f)
	}
	got := cycleOverheads(cells, outs)

	results, err := harness.RunSuite(workloads.Spec(), harness.SpecConfigs())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range core.Backends() {
		want := harness.Summarize(results, name, -1).Avg
		if g := got["cycle_ovh_"+name+"_pct"]; g != want {
			t.Errorf("cycle_ovh_%s_pct = %v, Table 1 average %v", name, g, want)
		}
	}
}

// spin holds the CPU for d, a service time the timer granularity cannot
// stretch.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// Latency is measured from the scheduled arrival, so it includes the wait
// behind earlier requests: three requests due at once on one worker with a
// 5 ms service time finish about 5, 10 and 15 ms after they were due.
func TestOpenLoopLatencyIncludesQueueWait(t *testing.T) {
	const svc = 5 * time.Millisecond
	ph := openLoop([]time.Duration{0, 0, 0}, 1, func(w, i int, _ time.Time) bool {
		spin(svc)
		return true
	})
	if ph.overloaded || ph.failed() != 0 {
		t.Fatalf("overloaded %v, failed %d", ph.overloaded, ph.failed())
	}
	lat, queue, service, lag := ph.times()
	if len(lat) != 3 || len(lag) != 3 {
		t.Fatalf("got %d latencies and %d generator lags, want 3 each", len(lat), len(lag))
	}
	for i := range lat {
		k := float64(i)
		if lat[i] < ms(svc)*(k+1) || queue[i] < ms(svc)*k || service[i] < ms(svc) {
			t.Errorf("request %d: latency %.2f ms, queue %.2f ms, service %.2f ms; want at least %.0f, %.0f, %.0f",
				i, lat[i], queue[i], service[i], ms(svc)*(k+1), ms(svc)*k, ms(svc))
		}
		if lag[i] < 0 {
			t.Errorf("request %d: negative generator lag %.3f ms", i, lag[i])
		}
	}
}

// A phase offered twice what its worker can serve grows its backlog to the
// end: it is flagged overloaded and all of its requests count as failed. At
// a fifth of the capacity it is not.
func TestOpenLoopFlagsOverload(t *testing.T) {
	const svc = 2 * time.Millisecond // one worker serves 500 req/s
	for _, tc := range []struct {
		rate       float64
		overloaded bool
	}{{100, false}, {1000, true}} {
		due := make([]time.Duration, int(tc.rate)) // one second of arrivals
		for i := range due {
			due[i] = time.Duration(float64(i) / tc.rate * float64(time.Second))
		}
		ph := openLoop(due, 1, func(w, i int, _ time.Time) bool {
			spin(svc)
			return true
		})
		if ph.overloaded != tc.overloaded {
			t.Errorf("rate %.0f: overloaded = %v (backlog %d mid-phase, %d at the end), want %v",
				tc.rate, ph.overloaded, ph.midBacklog, ph.endBacklog, tc.overloaded)
		}
		wantFailed := int64(0)
		if tc.overloaded {
			wantFailed = int64(len(due))
		}
		if ph.failed() != wantFailed {
			t.Errorf("rate %.0f: failed = %d, want %d", tc.rate, ph.failed(), wantFailed)
		}
	}
}

// The staged compilation agrees with core.Compile for each kind of
// configuration the benchmark compiles, and the check notices when it
// does not.
func TestStagedCompileMatchesCompile(t *testing.T) {
	w, _ := workloads.ByName(workloads.Spec(), "471.omnetpp")
	var cfgs []core.Config
	for _, nc := range specConfigs() {
		cfgs = append(cfgs, nc.Cfg)
	}
	items, err := ripeItems()
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, items[len(items)-1].cfg) // pac, unpromoted, seeded
	for _, cfg := range cfgs {
		prog, code, err := compileStaged(nil, &counts{}, -1, "", w.Src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkStaged(prog, code, w.Src, cfg); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
	cps, _ := core.ConfigForName("cps")
	cpi, _ := core.ConfigForName("cpi")
	prog, code, err := compileStaged(nil, &counts{}, -1, "", w.Src, cps)
	if err != nil {
		t.Fatal(err)
	}
	if checkStaged(prog, code, w.Src, cpi) == nil {
		t.Error("a cps compilation passed the check against cpi")
	}
}

// Each span's self time is its duration minus its children's.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.add("op", "1", -1, 0, 100)
	tr.add("a", "1", root, 10, 40)
	tr.add("b", "1", root, 50, 60)
	got := map[string]float64{}
	for _, l := range tr.summary() {
		got[l.Name] = l.SelfMs * 1e6
	}
	want := map[string]float64{"op": 60, "a": 30, "b": 10}
	for k, v := range want {
		if d := got[k] - v; d > 1e-6 || d < -1e-6 {
			t.Errorf("self time of %s = %v ns, want %v", k, got[k], v)
		}
	}
}

// BENCHMARK.json declares the metrics this command prints, in order, with
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []struct{ name, unit string }
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(tc.declared) != len(tc.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", tc.kind, len(tc.declared), len(tc.printed))
			continue
		}
		for i, m := range tc.printed {
			if d := tc.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)", tc.kind, i, d.Name, d.Unit, m.name, m.unit)
			}
		}
	}
}
