package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"gnsslna/internal/device"
	"gnsslna/internal/extract"
	"gnsslna/internal/obs"
	"gnsslna/internal/twoport"
	"gnsslna/internal/vna"
)

// The extract workload is one serial client running a seeded stream of
// Quick three-step extractions (vna.RunCampaign, then extract.ThreeStep),
// cycling through every DC model class over distinct process-variant
// devices and seeds. It loads extract, the small-signal half of device,
// twoport.YToS and the DE/LM optimizers, and never touches the band engine,
// the memo or the job server.

// srmseBound is the accuracy gate of an extraction per DC model class: the
// final normalized S-parameter residual a Quick three-step fit must reach.
// The measured devices are Angelov-class lots, so the Angelov class is held
// to the 0.06 the extraction tests require on process variants, and the
// other classes, which carry model-form error on top of the fit, to the
// looser 0.08 the tests allow the DE-only baseline.
var srmseBound = map[string]float64{
	"Angelov":   0.06,
	"Curtice-2": 0.08,
	"Curtice-3": 0.08,
	"Statz":     0.08,
	"TOM":       0.08,
}

type extractReq struct {
	model int // index into device.AllModels()
	seed  int64
}

// extractBudget is the per-extraction budget: the Quick budget of the
// extraction flow, or a tiny one for the self-test.
func extractBudget(cfg runConfig, seed int64) extract.Config {
	c := extract.Config{Seed: seed, DCEvals: 6000, GlobalEvals: 2500, RefineIters: 20, Workers: 1}
	if cfg.tiny {
		c.DCEvals, c.GlobalEvals, c.RefineIters = 300, 200, 3
	}
	return c
}

// extractSetup builds the request stream: a deck over the model classes and
// one distinct seed per request, which picks the device lot (GoldenVariant),
// the instrument noise and the optimizer streams.
func extractSetup(seed int64) func() extractReq {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, len(device.AllModels()))
	for i := range idx {
		idx[i] = i
	}
	models := newDeck(rng, idx...)
	i := int64(0)
	return func() extractReq {
		i++
		return extractReq{model: models.deal(), seed: seed*1_000_000 + i}
	}
}

type extractOutcome struct {
	model    string
	ds       *vna.Dataset
	res      extract.Result
	campaign time.Duration
	err      error
}

// runExtractReq measures a process-variant device and extracts the request's
// model class from the synthetic campaign.
func runExtractReq(cfg runConfig, req extractReq, o obs.Observer) extractOutcome {
	m := device.AllModels()[req.model]
	out := extractOutcome{model: m.Name()}
	t := time.Now()
	dev, err := variantFor(req.seed)
	if err != nil {
		out.err = err
		return out
	}
	out.ds, out.err = vna.RunCampaign(dev, vna.DefaultCampaign(req.seed))
	out.campaign = time.Since(t)
	if out.err != nil {
		return out
	}
	c := extractBudget(cfg, req.seed)
	c.Observer = o
	out.res, out.err = extract.ThreeStep(out.ds, m, c)
	return out
}

// variantFor returns the first GoldenVariant lot at or after seed whose DC
// parameters the model accepts.
func variantFor(seed int64) (*device.PHEMT, error) {
	var err error
	for k := seed; k < seed+8; k++ {
		var d *device.PHEMT
		if d, err = device.GoldenVariant(k); err == nil {
			return d, nil
		}
	}
	return nil, err
}

// checkExtract requires every extracted device parameter to be finite and
// the fit to meet its class's SRMSE bound.
func checkExtract(out extractOutcome) (ok, specMet bool) {
	if out.err != nil || out.res.Device == nil {
		return false, false
	}
	if !allFinite(reflect.ValueOf(*out.res.Device)) {
		return false, false
	}
	for _, p := range out.res.Device.DC.Params() {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return false, false
		}
	}
	met := out.res.SRMSE <= srmseBound[out.model]
	return met, met
}

// allFinite walks a struct's float fields.
func allFinite(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		f := v.Float()
		return !math.IsNaN(f) && !math.IsInf(f, 0)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !allFinite(v.Field(i)) {
				return false
			}
		}
	}
	return true
}

// stepSpans records the wall milliseconds of the extraction's step spans.
type stepSpans struct {
	mu sync.Mutex
	ms map[string]float64
	// gens counts optimizer generation records.
	gens int
}

func (s *stepSpans) Observe(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case obs.KindSpanEnd:
		s.ms[e.Scope] += e.Value
	case obs.KindGeneration:
		s.gens++
	}
}

func runExtract(cfg runConfig) (*report, error) {
	r := &report{}
	var next func() extractReq
	// Set-up: build the request deck and run one warm-up extraction so lazy
	// package state and heap growth are paid before timing.
	for k := 0; k < 3; k++ {
		t := time.Now()
		next = extractSetup(cfg.seed)
		out := runExtractReq(cfg, extractReq{model: k % len(device.AllModels()), seed: -1 - int64(k)}, nil)
		if out.err != nil {
			return nil, fmt.Errorf("warm-up: %w", out.err)
		}
		r.setups = append(r.setups, time.Since(t))
	}

	acc := layerAcc{}
	var wallMS, modelMS float64
	var latTraced, latPlain []float64
	srmse := map[string][]float64{}
	measureSerial(cfg, r, func(i int) opSample {
		req := next()
		var spans *stepSpans
		var o obs.Observer
		traced := cfg.trace && i%2 == 1
		if traced {
			spans = &stepSpans{ms: map[string]float64{}}
			o = spans
		}
		t := time.Now()
		out := runExtractReq(cfg, req, o)
		lat := time.Since(t)
		ok, met := checkExtract(out)
		if out.err == nil {
			srmse[out.model] = append(srmse[out.model], out.res.SRMSE)
		}
		if cfg.trace && out.err == nil {
			opMS := float64(lat.Microseconds()) / 1e3
			acc.add("extract.s_evals_per_op", float64(out.res.SEvals))
			acc.add("extract.dc_evals_per_op", float64(out.res.DC.Evals))
			acc.add("extract.srmse_p50", out.res.SRMSE)
			campMS := float64(out.campaign.Microseconds()) / 1e3
			acc.add("vna.campaign_ms", campMS)
			residualUS := probeExtract(out, acc)
			// Wall time over the campaign and S-residual cost normalizes
			// away the request's budget use, so the traced and untraced
			// halves compare like for like.
			norm := opMS / (campMS + float64(out.res.SEvals)*residualUS/1e3)
			if traced {
				latTraced = append(latTraced, norm)
				dcMS := spans.ms["extract.step2.dcfit"]
				coldMS := spans.ms["extract.step1.coldfet"]
				acc.add("extract.dcfit_ms", dcMS)
				acc.add("extract.coldfet_us", coldMS*1e3)
				acc.add("optim.generations_per_op", float64(spans.gens))
				// Model: campaign + cold-FET + DC fit + S-residual calls.
				model := campMS + coldMS + dcMS + float64(out.res.SEvals)*residualUS/1e3
				wallMS += opMS
				modelMS += model
				acc.add("optim.self_ms_per_op", opMS-model)
			} else {
				latPlain = append(latPlain, norm)
			}
		}
		return opSample{lat: lat, failed: !ok, specMet: met}
	})
	for _, m := range device.AllModels() {
		v := srmse[m.Name()]
		r.note("srmse %-10s n=%-3d p50 %.4f max %.4f (bound %.3f)", m.Name(), len(v), median(v), quantile(v, 1), srmseBound[m.Name()])
	}
	if cfg.trace {
		r.layers = acc.medians()
		r.layers["bench.explained_frac"] = modelMS / wallMS
		r.layers["bench.trace_overhead_frac"] = median(latTraced)/median(latPlain) - 1
		r.explain("extract", len(latTraced), wallMS, modelMS, "campaign + coldfet + dcfit + s_evals x extract.residual_us")
	}
	return r, nil
}

// probeExtract times the extraction's inner layers on the request's dataset
// and extracted device, and returns the S-residual cost in microseconds.
func probeExtract(out extractOutcome, acc layerAcc) float64 {
	d := out.res.Device
	// The residual cost does not depend on where in the box the vector
	// sits, so the box midpoint stands in for the optimizer's candidates.
	sres, err := extract.NewSResidual(out.ds, d.DC, d.Ext, false)
	if err != nil {
		return 0
	}
	lo, hi := sres.Bounds()
	p := make([]float64, len(lo))
	for i := range p {
		p[i] = (lo[i] + hi[i]) / 2
	}
	residualUS := costUS(5, func() { sres.Residuals(p) })
	acc.add("extract.residual_us", residualUS)
	set := out.ds.Hot[0]
	ss := d.SmallSignalAt(set.Bias)
	f := set.Net.Freqs[len(set.Net.Freqs)/2]
	acc.add("device.s_from_small_signal_us", costUS(200, func() { _, _ = device.SFromSmallSignal(ss, d.Ext, f, out.ds.Z0) }))
	y := device.IntrinsicY(ss, f)
	acc.add("twoport.ytos_ns", 1e3*costUS(1000, func() { _, _ = twoport.YToS(y, out.ds.Z0) }))
	return residualUS
}
