package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// sorting xs in place. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

// median is the middle value of xs (mean of the middle two for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// outputHash fingerprints a program's output.
func outputHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// timeSetup runs one set-up and returns its product and duration in
// seconds. The workloads set up again before every pass or round and
// report the median, so the set-up samples spread over the whole run the
// way the other measurements do.
func timeSetup[T any](setup func() (T, error)) (T, float64, error) {
	start := time.Now()
	v, err := setup()
	return v, time.Since(start).Seconds(), err
}

// measure runs pass 0 as a warm-up, then timed passes until opt.seconds
// have gone by since the first timed one began. Each pass returns its
// timing values; measure adds the pass's mean live heap and writes each
// metric's median over the timed passes into v. Every pass has the same
// structure, so the values are comparable, and the median over passes
// spread across the run passes over a stretch in which the host ran slow.
func measure(opt options, v map[string]float64, pass func(n int) (map[string]float64, error)) error {
	per := map[string][]float64{}
	var start time.Time
	for n := 0; n < 2 || time.Since(start).Seconds() < opt.seconds; n++ {
		if n == 1 {
			start = time.Now()
			opt.heap.take()
		}
		vals, err := pass(n)
		if err != nil {
			return err
		}
		if n == 0 {
			continue
		}
		vals["host_heap_mb"] = opt.heap.take()
		for name, x := range vals {
			per[name] = append(per[name], x)
		}
	}
	for name, xs := range per {
		v[name] = median(xs)
	}
	fmt.Fprintf(os.Stderr, "%d timed passes; per pass: ops_per_s %.4g, tail_ms %.3g\n",
		len(per["ops_per_s"]), per["ops_per_s"], per["tail_ms"])
	return nil
}

// heapSampler reads the live Go heap — the bytes the latest collection
// marked live, from runtime/metrics, which does not stop the world — every
// millisecond and averages the readings between takes. The average over a
// pass weighs each working set by how long it was live; the highest
// reading instead depends on whether a collection happened to finish while
// a short-lived set-up was live, and swung by a third between runs.
type heapSampler struct {
	mu       sync.Mutex
	sum, n   float64
	stopc    chan struct{}
	finished chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(h.finished)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.sum += float64(s[0].Value.Uint64())
			h.n++
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the mean live heap since the previous take, in MB, and
// starts the next window.
func (h *heapSampler) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	mean := 0.0
	if h.n > 0 {
		mean = h.sum / h.n / (1 << 20)
	}
	h.sum, h.n = 0, 0
	return mean
}

// stop ends the sampler and waits for it to exit.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.finished
}

// runtimeCost is the Go runtime's bill for a stretch of work.
type runtimeCost struct {
	gcCycles, gcPauseNs, mallocs, allocBytes uint64
}

func readRuntime() runtimeCost {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCost{uint64(m.NumGC), m.PauseTotalNs, m.Mallocs, m.TotalAlloc}
}

// putRuntime records the runtime cost between two readings, spread over
// ops operations.
func putRuntime(v map[string]float64, before, after runtimeCost, ops int64) {
	v["gc.cycles"] = float64(after.gcCycles - before.gcCycles)
	v["gc.pause_ms"] = float64(after.gcPauseNs-before.gcPauseNs) / 1e6
	if ops > 0 {
		v["alloc.objs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
		v["alloc.bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(ops)
	}
}

// putTraceCost records the traced run's own size and cost: the traced wall
// time of a batch of work against the untraced wall time of the same batch.
func putTraceCost(v map[string]float64, tr *tracer, traced, untraced time.Duration) {
	v["trace.spans"] = float64(len(tr.spans))
	v["trace.wall_ms"] = ms(traced)
	v["trace.untraced_ms"] = ms(untraced)
	v["trace.overhead_ms"] = ms(traced - untraced)
}

// putSelfTimes copies each layer's self time into the metric values.
func putSelfTimes(v map[string]float64, self map[string]float64) {
	for span, metric := range map[string]string{
		"parse": "parse.ms", "sema": "sema.ms", "irgen": "irgen.ms",
		"pointsto": "pointsto.ms", "instrument": "instrument.ms", "verify": "verify.ms",
		"predecode": "predecode.ms", "machine_new": "machine_new.ms", "run": "run.ms",
		"pool.get": "pool.get.ms", "reset": "reset.ms", "ripe.attack": "ripe.attack_ms",
	} {
		v[metric] = self[span]
	}
}
