package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// opSample is one operation as the client saw it: a design, an extraction,
// or a job from POST until its result is in hand.
type opSample struct {
	lat     time.Duration
	failed  bool // errored, was rejected, or failed an output check
	specMet bool // the result meets the stated accuracy gate
}

// report is what a workload hands back: its samples, set-up times and, in a
// traced run, per-layer numbers and the explain model.
type report struct {
	setups []time.Duration
	ops    []opSample
	window time.Duration
	// allocBytes is the Go heap TotalAlloc delta over the measured window.
	allocBytes uint64
	// layers holds per-layer metric values by name (traced runs).
	layers map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd lists the metrics a user of the system sees, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"throughput_ops_per_s", "1/s"},
	{"success_frac", "frac"},
	{"spec_met_frac", "frac"},
	{"alloc_mb_per_op", "MiB"},
	{"rss_peak_mb", "MiB"},
}

// perLayer lists the traced run's metrics. Layers a workload bypasses read
// 0 on that workload; BENCHMARK.json records which workload loads which.
var perLayer = []struct{ name, unit string }{
	{"core.evals_per_op", "count"},
	{"core.evaluate_us", "us"},
	{"core.build_us", "us"},
	{"core.metrics_band_us", "us"},
	{"core.twostage_point_us", "us"},
	{"core.memo_lookups", "count"},
	{"core.memo_hit_ratio", "frac"},
	{"core.memo_hit_us", "us"},
	{"core.alloc_bytes_per_eval", "B"},
	{"device.band_state_us", "us"},
	{"device.noisy_band_us", "us"},
	{"device.noisy_at_us", "us"},
	{"device.s_from_small_signal_us", "us"},
	{"rfpassive.compile_chain_us", "us"},
	{"rfpassive.chain_noisy_band_us", "us"},
	{"noise.cascade_band_us", "us"},
	{"twoport.ytos_ns", "ns"},
	{"optim.generations_per_op", "count"},
	{"optim.self_ms_per_op", "ms"},
	{"extract.s_evals_per_op", "count"},
	{"extract.dc_evals_per_op", "count"},
	{"extract.residual_us", "us"},
	{"extract.dcfit_ms", "ms"},
	{"extract.coldfet_us", "us"},
	{"extract.srmse_p50", "frac"},
	{"vna.campaign_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.wal_bytes_per_job", "B"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.run_ms_p50.design", "ms"},
	{"serve.run_ms_p50.extract", "ms"},
	{"serve.run_ms_p50.sweep", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.rejected", "count"},
	{"serve.failed", "count"},
	{"bench.explained_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}

// print writes the metadata, notes and the result object (last line).
func (r *report) print(w io.Writer, cfg runConfig, meta metadata) {
	writeJSONLine(w, map[string]any{"meta": meta})
	lats := make([]float64, len(r.ops))
	failed, met := 0, 0
	for i, op := range r.ops {
		lats[i] = op.lat.Seconds()
		if op.failed {
			failed++
		}
		if op.specMet {
			met++
		}
	}
	n := float64(len(r.ops))
	fmt.Fprintf(w, "ops: %d in %.2fs (latency samples beyond p90: %d), failed %d, spec met %d\n",
		len(r.ops), r.window.Seconds(), len(lats)-int(math.Ceil(0.9*n)), failed, met)
	for _, line := range r.notes {
		fmt.Fprintln(w, line)
	}
	res := result{
		Correct:   failed == 0 && len(r.ops) > 0,
		Attempted: len(r.ops),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: finite(r.layers[m.name]), Unit: m.unit}
		}
	} else {
		setups := make([]float64, len(r.setups))
		for i, s := range r.setups {
			setups[i] = s.Seconds()
		}
		vals := map[string]float64{
			"setup_s":              median(setups),
			"latency_p50_s":        quantile(lats, 0.5),
			"latency_p90_s":        quantile(lats, 0.9),
			"throughput_ops_per_s": n / r.window.Seconds(),
			"success_frac":         (n - float64(failed)) / n,
			"spec_met_frac":        float64(met) / n,
			"alloc_mb_per_op":      float64(r.allocBytes) / n / (1 << 20),
			"rss_peak_mb":          rssPeakMiB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: finite(vals[m.name]), Unit: m.unit}
		}
	}
	writeJSONLine(w, res)
}

// finite maps NaN and infinities (an empty sample) to 0, which JSON can hold.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rssPeakMiB is the process's peak resident set size.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// measureSerial runs op back to back, one client waiting for each reply,
// until the window closes (or cfg.maxOps ops ran). op times its own call so
// that output checks and traced-run probes stay outside the latency.
func measureSerial(cfg runConfig, r *report, op func(i int) opSample) {
	a0 := totalAlloc()
	start := time.Now()
	for i := 0; ; i++ {
		r.ops = append(r.ops, op(i))
		if time.Since(start) >= cfg.window || (cfg.maxOps > 0 && i+1 >= cfg.maxOps) {
			break
		}
	}
	r.window = time.Since(start)
	r.allocBytes = totalAlloc() - a0
}

// probeRounds is how many timed rounds a layer probe runs; it reports the
// median round, which discards rounds a preemption or GC pause hit.
const probeRounds = 5

// costUS is the per-call wall time of f in microseconds: the median over
// probeRounds rounds of n back-to-back calls.
func costUS(n int, f func()) float64 {
	rounds := make([]float64, probeRounds)
	for k := range rounds {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		rounds[k] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(n)
	}
	return median(rounds)
}

// layerAcc collects per-op layer observations; a traced run reports the
// median of each.
type layerAcc map[string][]float64

func (a layerAcc) add(name string, v float64) { a[name] = append(a[name], v) }

func (a layerAcc) medians() map[string]float64 {
	out := make(map[string]float64, len(a))
	for k, v := range a {
		out[k] = median(v)
	}
	return out
}

// explain prints the layer-cost × call-count model of one op class next to
// its measured wall time.
func (r *report) explain(class string, ops int, wallMS, modeledMS float64, model string) {
	if ops == 0 {
		return
	}
	r.note("explain %-10s n=%-4d wall %9.1f ms  model %9.1f ms  explained %.3f  residue %.2f ms/op  [%s]",
		class, ops, wallMS, modeledMS, modeledMS/wallMS, (wallMS-modeledMS)/float64(ops), model)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
