package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"time"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/noise"
	"gnsslna/internal/obs"
	"gnsslna/internal/optim"
	"gnsslna/internal/rfpassive"
)

// The design workload is one serial client (Workers = 1, the lnaopt
// default) sending a seeded stream of Quick-budget design requests. Three in
// four are single-stage Designer.Optimize (the batched band path), one in
// four Designer.OptimizeTwoStage (the per-point MetricsAt path). Every
// optimizer seed is distinct, so the process-wide memo sees ~no hits: this
// is the cold design cost.

// deck deals values in shuffled rounds, so every run of a workload sees the
// same mix of inputs while the seed sets their order and identity.
type deck[T any] struct {
	vals []T
	rng  *rand.Rand
	left []T
}

func newDeck[T any](rng *rand.Rand, vals ...T) *deck[T] {
	return &deck[T]{vals: vals, rng: rng}
}

func (d *deck[T]) deal() T {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.vals...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return v
}

type band struct {
	name   string
	lo, hi float64
}

// designBands are the request bands: the paper's full multi-constellation
// band and the lower and upper L-band signal groups of core.GNSSBands.
func designBands() []band {
	lower := band{name: "L-low", lo: math.Inf(1), hi: math.Inf(-1)}
	upper := band{name: "L-high", lo: math.Inf(1), hi: math.Inf(-1)}
	for _, b := range core.GNSSBands() {
		g := &lower
		if b.Center > 1.4e9 {
			g = &upper
		}
		g.lo = math.Min(g.lo, b.Center-b.Width/2)
		g.hi = math.Max(g.hi, b.Center+b.Width/2)
	}
	lo, hi := core.DesignBand()
	return []band{{name: "full", lo: lo, hi: hi}, lower, upper}
}

type designReq struct {
	twoStage bool
	band     band
	npts     int
	builder  *core.Builder
	optSeed  int64
}

// designBudget is the per-request optimizer budget: the Quick budget of the
// design flow, or a tiny one for the self-test.
func designBudget(cfg runConfig) (global, polish int) {
	if cfg.tiny {
		return 60, 40
	}
	return 1500, 900
}

// designSetup builds the request stream: devices (Golden and three
// GoldenVariant lots), one builder per device and substrate, and decks for
// stage count with grid size (3-21 points), band, substrate and device.
func designSetup(seed int64) (next func() designReq) {
	rng := rand.New(rand.NewSource(seed))
	devs := []*device.PHEMT{device.Golden()}
	for k := int64(1); len(devs) < 4; k++ {
		if v, err := device.GoldenVariant(k); err == nil {
			devs = append(devs, v)
		}
	}
	subs := []rfpassive.Substrate{rfpassive.RogersRO4350(), rfpassive.FR4()}
	builders := make([][]*core.Builder, len(devs))
	for i, d := range devs {
		for _, s := range subs {
			b := core.NewBuilder(d)
			b.Sub = s
			builders[i] = append(builders[i], b)
		}
	}
	// Stage count and grid size are dealt jointly: together they set an
	// op's cost, so a joint deck keeps every run's cost mix the same.
	type shape struct {
		twoStage bool
		npts     int
	}
	var shapes []shape
	for _, two := range []bool{false, false, false, true} {
		for n := 3; n <= 21; n += 3 {
			shapes = append(shapes, shape{two, n})
		}
	}
	shapeDeck := newDeck(rng, shapes...)
	bands := newDeck(rng, designBands()...)
	devDeck := newDeck(rng, 0, 1, 2, 3)
	subDeck := newDeck(rng, 0, 1)
	i := int64(0)
	return func() designReq {
		i++
		sh := shapeDeck.deal()
		return designReq{
			twoStage: sh.twoStage,
			band:     bands.deal(),
			npts:     sh.npts,
			builder:  builders[devDeck.deal()][subDeck.deal()],
			optSeed:  seed*1_000_000 + i,
		}
	}
}

// designOutcome is what one request returned, plus what the checks and the
// traced-run probes need.
type designOutcome struct {
	req     designReq
	d       *core.Designer
	single  core.DesignResult
	two     core.TwoStageResult
	twoSpec core.TwoStageSpec
	evals   int
	err     error
}

// runDesignReq executes one request through a fresh designer on the
// process-wide memo, as every library caller gets it.
func runDesignReq(cfg runConfig, req designReq, o obs.Observer) designOutcome {
	global, polish := designBudget(cfg)
	opts := &optim.AttainOptions{Seed: req.optSeed, GlobalEvals: global, PolishEvals: polish, Workers: 1, Observer: o}
	d := core.NewDesigner(req.builder)
	d.Spec.FLow, d.Spec.FHigh, d.Spec.NPoints = req.band.lo, req.band.hi, req.npts
	out := designOutcome{req: req, d: d}
	if req.twoStage {
		spec := core.DefaultTwoStageSpec()
		spec.FLow, spec.FHigh, spec.NPoints = req.band.lo, req.band.hi, req.npts
		out.twoSpec = spec
		out.two, out.err = d.OptimizeTwoStage(spec, opts)
		out.evals = out.two.Evals
	} else {
		out.single, out.err = d.Optimize(opts)
		out.evals = out.single.Evals
	}
	return out
}

// checkDesign re-grades the returned design on a fresh designer without a
// memo: the exact engine must reproduce (==) what the request returned, so
// a cache can never hand back an answer the engine would not. It also
// reports whether the result meets its spec.
func checkDesign(out designOutcome) (ok, specMet bool) {
	if out.err != nil {
		return false, false
	}
	b := out.req.builder
	if !out.req.twoStage {
		ref := &core.Designer{Builder: b, Spec: out.d.Spec, Z0: out.d.Z0}
		ev, err := ref.Evaluate(out.single.Snapped)
		if err != nil || !reflect.DeepEqual(ev, out.single.SnappedEval) {
			return false, false
		}
		return true, snappedMeetsSpec(out.d.Spec, ev)
	}
	nf, gt, margin, pdc, err := gradeTwoStage(b, out.twoSpec.Spec, out.two.D1, out.two.D2)
	if err != nil || nf != out.two.WorstNFdB || gt != out.two.MinGTdB ||
		margin != out.two.StabMargin || pdc != out.two.PdcW {
		return false, false
	}
	return true, out.two.Gamma <= 0
}

// snappedMeetsSpec reports whether the snapped design's attainment factor is
// <= 0, i.e. every objective is at or below its goal target (the sign of
// gamma = max_i (f_i - T_i)/w_i does not depend on the weights). The
// stability target -0.02 is the design flow's goal on -StabMargin.
func snappedMeetsSpec(s core.Spec, ev core.Evaluation) bool {
	f := ev.Objectives()
	targets := []float64{s.NFMaxDB, -s.GTMinDB, s.S11MaxDB, s.S22MaxDB, -0.02, s.PdcMaxW}
	for i, t := range targets {
		if i == 5 && s.PdcMaxW <= 0 {
			continue
		}
		if f[i] > t {
			return false
		}
	}
	return true
}

// gradeTwoStage grades a cascade over the spec's in-band and stability
// grids with the per-point path, as OptimizeTwoStage does.
func gradeTwoStage(b *core.Builder, spec core.Spec, d1, d2 core.Design) (nf, gt, margin, pdc float64, err error) {
	ts, err := b.BuildTwoStage(d1, d2)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	pts, stab := (&core.Designer{Spec: spec}).SweepGrids()
	nf, gt, margin = math.Inf(-1), math.Inf(1), math.Inf(1)
	for _, f := range pts {
		m, err := ts.MetricsAt(f, 50)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		nf, gt, margin = math.Max(nf, m.NFdB), math.Min(gt, m.GTdB), math.Min(margin, m.Mu-1)
	}
	for _, f := range stab {
		m, err := ts.MetricsAt(f, 50)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		margin = math.Min(margin, m.Mu-1)
	}
	return nf, gt, margin, ts.PowerDissipation(), nil
}

func runDesign(cfg runConfig) (*report, error) {
	r := &report{}
	var next func() designReq
	// Set-up: build the devices, builders and request decks, then run one
	// warm-up request on a memo-less designer so lazy package state and
	// heap growth are paid before timing without warming the shared memo.
	for k := 0; k < 3; k++ {
		t := time.Now()
		n := designSetup(cfg.seed)
		warm := n()
		warm.optSeed = -1 - int64(k)
		d := &core.Designer{Builder: warm.builder, Spec: core.DefaultSpec(), Z0: 50}
		global, polish := designBudget(cfg)
		if _, err := d.Optimize(&optim.AttainOptions{Seed: warm.optSeed, GlobalEvals: global, PolishEvals: polish, Workers: 1}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t))
		next = n
	}

	memo0 := core.DefaultEvalMemo().Stats()
	acc := layerAcc{}
	var gens atomic.Int64
	counter := obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindGeneration {
			gens.Add(1)
		}
	})
	var wallMS, modelMS [2]float64
	var nKind [2]int
	var latTraced, latPlain []float64
	metBy, nBy := map[string]int{}, map[string]int{}
	measureSerial(cfg, r, func(i int) opSample {
		req := next()
		var o obs.Observer
		// Traced runs attach the generation counter to every other request;
		// the two halves give the tracing overhead.
		traced := cfg.trace && i%2 == 1
		if traced {
			o = counter
			gens.Store(0)
		}
		var a0 uint64
		if cfg.trace {
			a0 = totalAlloc()
		}
		t := time.Now()
		out := runDesignReq(cfg, req, o)
		lat := time.Since(t)
		kind := "single"
		if req.twoStage {
			kind = "two-stage"
		}
		if cfg.trace && out.err == nil {
			if traced {
				acc.add("optim.generations_per_op", float64(gens.Load()))
			}
			acc.add("core.alloc_bytes_per_eval", float64(totalAlloc()-a0)/float64(out.evals))
			acc.add("core.evals_per_op", float64(out.evals))
			perEval := probeDesign(out, acc)
			k := 0
			if req.twoStage {
				k = 1
			}
			opMS := float64(lat.Microseconds()) / 1e3
			model := float64(out.evals) * perEval / 1e3
			wallMS[k] += opMS
			modelMS[k] += model
			nKind[k]++
			acc.add("optim.self_ms_per_op", opMS-model)
			// Wall time over the cost model normalizes away the request's
			// shape, so the traced and untraced halves compare like for like.
			if traced {
				latTraced = append(latTraced, opMS/model)
			} else {
				latPlain = append(latPlain, opMS/model)
			}
		}
		ok, met := checkDesign(out)
		class := fmt.Sprintf("%-9s %-6s", kind, req.band.name)
		if met {
			metBy[class]++
		}
		nBy[class]++
		return opSample{lat: lat, failed: !ok, specMet: met}
	})
	for _, class := range sortedKeys(nBy) {
		r.note("spec met %s %3d of %3d", class, metBy[class], nBy[class])
	}
	memo1 := core.DefaultEvalMemo().Stats()
	lookups := (memo1.Hits + memo1.Misses) - (memo0.Hits + memo0.Misses)
	hits := memo1.Hits - memo0.Hits
	r.note("memo: %d hits of %d lookups over the window", hits, lookups)
	if cfg.trace {
		r.layers = acc.medians()
		r.layers["core.memo_lookups"] = float64(lookups)
		r.layers["core.memo_hit_ratio"] = float64(hits) / float64(lookups)
		r.layers["bench.explained_frac"] = (modelMS[0] + modelMS[1]) / (wallMS[0] + wallMS[1])
		r.layers["bench.trace_overhead_frac"] = median(latTraced)/median(latPlain) - 1
		r.explain("single", nKind[0], wallMS[0], modelMS[0], "evals x core.evaluate_us")
		r.explain("two-stage", nKind[1], wallMS[1], modelMS[1], "evals x (BuildTwoStage + MetricsAt per grid point)")
	}
	return r, nil
}

// probeDesign times the layers one request exercised, on that request's
// device, substrate, grid and returned design, and returns the per-call
// cost in microseconds of the objective the optimizer evaluated.
func probeDesign(out designOutcome, acc layerAcc) float64 {
	b := out.req.builder
	spec := out.d.Spec
	x := out.single.Snapped
	if out.req.twoStage {
		spec = out.twoSpec.Spec
		x = out.two.D1
	}
	plain := &core.Designer{Builder: b, Spec: spec, Z0: 50}
	pts, _ := plain.SweepGrids()
	evalUS := costUS(10, func() { _, _ = plain.Evaluate(x) })
	acc.add("core.evaluate_us", evalUS)
	acc.add("core.build_us", costUS(20, func() { _, _ = b.Build(x) }))
	amp, err := b.Build(x)
	if err != nil {
		return evalUS
	}
	acc.add("core.metrics_band_us", costUS(10, func() { _, _ = amp.MetricsBand(pts, 50) }))

	// The band engine's layers, on the request's grid.
	n := len(pts)
	devBuf := make([]noise.TwoPort, n)
	inBuf := make([]noise.TwoPort, n)
	outBuf := make([]noise.TwoPort, n)
	tmp := make([]noise.TwoPort, n)
	tmp2 := make([]noise.TwoPort, n)
	acc.add("device.band_state_us", costUS(50, func() { amp.Dev.BandStateAt(amp.Bias) }))
	acc.add("device.noisy_band_us", costUS(10, func() { _ = amp.Dev.NoisyBandInto(devBuf, amp.Bias, pts) }))
	acc.add("device.noisy_at_us", costUS(50, func() { _, _ = amp.Dev.NoisyAt(amp.Bias, pts[0]) }))
	var ccIn, ccOut *rfpassive.CompiledChain
	acc.add("rfpassive.compile_chain_us", costUS(20, func() {
		ccIn = rfpassive.CompileChain(amp.Input)
		ccOut = rfpassive.CompileChain(amp.Output)
	}))
	acc.add("rfpassive.chain_noisy_band_us", costUS(10, func() {
		ccIn.NoisyBand(inBuf, pts)
		ccOut.NoisyBand(outBuf, pts)
	}))
	acc.add("noise.cascade_band_us", costUS(20, func() {
		noise.CascadeBand(tmp, inBuf, devBuf)
		noise.CascadeBand(tmp2, tmp, outBuf)
	}))

	// A memo hit, on a private memo so the shared one stays untouched: the
	// second miss admits the entry, the timed calls hit it.
	memo := &core.Designer{Builder: b, Spec: spec, Z0: 50, Memo: core.NewEvalMemo(64)}
	_, _ = memo.Evaluate(x)
	_, _ = memo.Evaluate(x)
	acc.add("core.memo_hit_us", costUS(50, func() { _, _ = memo.Evaluate(x) }))

	if !out.req.twoStage {
		return evalUS
	}
	ts, err := b.BuildTwoStage(out.two.D1, out.two.D2)
	if err != nil {
		return evalUS
	}
	acc.add("core.twostage_point_us", costUS(20, func() { _, _ = ts.MetricsAt(pts[0], 50) }))
	// The two-stage objective: build both stages, then MetricsAt over the
	// in-band and stability grids.
	return costUS(3, func() { _, _, _, _, _ = gradeTwoStage(b, spec, out.two.D1, out.two.D2) })
}
