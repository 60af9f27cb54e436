package verify

import (
	"math"
	"reflect"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// Batch-vs-reference differential checks: the band engine (compiled chains,
// hoisted device state, grid-batched metrics) is required to agree with the
// element-level definitions (Chain.Noisy/ABCD, PHEMT.NoisyAt, and the
// amplifier composition referenceNoisy below) under floating-point equality
// (==) — not within a tolerance. The elementary fast ops are constructed to
// perform the same scalar arithmetic in the same order as the generic path, so the only
// representable difference is the sign of a zero, which == treats as equal.
// Any larger divergence is an engine bug, and these checks catch it at
// every entry over the full corpus grid.

// exactMat2 demands a == b elementwise.
func exactMat2(context, name string, a, b twoport.Mat2) []Violation {
	if a == b {
		return nil
	}
	return []Violation{violation("batch-differential", context, twoport.MaxAbsDiff(a, b),
		"%s: batch and per-point %s matrices are not value-identical (max |diff| %.3g)",
		name, name, twoport.MaxAbsDiff(a, b))}
}

// BatchChainEquivalence compiles the chain and demands the batched noisy
// two-port and chain matrix equal (==) the per-point Chain.Noisy/ABCD at
// every frequency.
func BatchChainEquivalence(context string, ch rfpassive.Chain, freqs []float64) []Violation {
	return CompiledChainEquivalence(context, rfpassive.CompileChain(ch), ch, freqs)
}

// CompiledChainEquivalence demands that cc, however it was compiled (fresh,
// or recompiled in place over another chain), reproduce ch: its noisy
// two-port and chain matrix must equal (==) Chain.Noisy/ABCD at every
// frequency, through the one-point views, the untabulated band loops and
// the band loops reading every elementary step from its Tabulate slab.
func CompiledChainEquivalence(context string, cc *rfpassive.CompiledChain, ch rfpassive.Chain, freqs []float64) []Violation {
	tab := make([][]complex128, len(ch))
	for i := range ch {
		tab[i] = cc.Tabulate(i, freqs)
	}
	n := len(freqs)
	noisy := cc.NoisyBand(make([]noise.TwoPort, n), freqs)
	noisyTab := cc.NoisyBand(make([]noise.TwoPort, n), freqs, tab...)
	abcd := cc.ABCDBand(make([]twoport.Mat2, n), freqs)
	abcdTab := cc.ABCDBand(make([]twoport.Mat2, n), freqs, tab...)
	var out []Violation
	for i, f := range freqs {
		ref, refA := ch.Noisy(f), ch.ABCD(f)
		ctx := pointContext(context, freqs, i)
		for _, got := range []struct {
			path string
			n    noise.TwoPort
			a    twoport.Mat2
		}{
			{"point", cc.NoisyAt(f), cc.ABCDAt(f)},
			{"band", noisy[i], abcd[i]},
			{"tabulated band", noisyTab[i], abcdTab[i]},
		} {
			out = append(out, exactMat2(ctx, got.path+" A", got.n.A, ref.A)...)
			out = append(out, exactMat2(ctx, got.path+" CA", got.n.CA, ref.CA)...)
			out = append(out, exactMat2(ctx, got.path+" ABCD", got.a, refA)...)
		}
	}
	return out
}

// BatchDeviceEquivalence demands the device band path — hoisted bias state
// for the noisy two-port, and the A-only embedding used by the stability
// scan — equal (==) NoisyAt at every frequency of the grid.
func BatchDeviceEquivalence(context string, dev *device.PHEMT, b device.Bias, freqs []float64) []Violation {
	var out []Violation
	band := make([]noise.TwoPort, len(freqs))
	if err := dev.NoisyBandInto(band, b, freqs); err != nil {
		return []Violation{violation("batch-differential", context, 0,
			"NoisyBandInto failed: %v", err)}
	}
	abcd := make([]twoport.Mat2, len(freqs))
	if err := dev.ABCDBandInto(abcd, b, freqs); err != nil {
		return []Violation{violation("batch-differential", context, 0,
			"ABCDBandInto failed: %v", err)}
	}
	for i, f := range freqs {
		ref, err := dev.NoisyAt(b, f)
		if err != nil {
			out = append(out, violation("batch-differential", pointContext(context, freqs, i), 0,
				"NoisyAt failed: %v", err))
			continue
		}
		ctx := pointContext(context, freqs, i)
		out = append(out, exactMat2(ctx, "A", band[i].A, ref.A)...)
		out = append(out, exactMat2(ctx, "CA", band[i].CA, ref.CA)...)
		out = append(out, exactMat2(ctx, "A-only ABCD", abcd[i], ref.A)...)
	}
	return out
}

// referenceNoisy is the element-level definition of the amplifier's noisy
// two-port at f, composed here rather than in core so that the band engine
// and its one-point views are checked against something other than
// themselves: Input.Noisy(f)·Dev.NoisyAt(Bias, f)·Output.Noisy(f), in that
// association order.
func referenceNoisy(amp *core.Amplifier, f float64) (noise.TwoPort, error) {
	dev, err := amp.Dev.NoisyAt(amp.Bias, f)
	if err != nil {
		return noise.TwoPort{}, err
	}
	return amp.Input.Noisy(f).Cascade(dev).Cascade(amp.Output.Noisy(f)), nil
}

// referenceMetrics reduces a noisy two-port at f to its metric summary with
// the public noise and twoport definitions.
func referenceMetrics(tp noise.TwoPort, f, z0 float64) (core.PointMetrics, error) {
	s, err := tp.S(z0)
	if err != nil {
		return core.PointMetrics{}, err
	}
	m := core.PointMetrics{
		Freq:  f,
		NFdB:  mathx.DB10(tp.FigureY(complex(1/z0, 0))),
		GTdB:  mathx.DB10(twoport.TransducerGain(s, 0, 0)),
		S11dB: db20Mag(s[0][0]),
		S22dB: db20Mag(s[1][1]),
		K:     twoport.RolletK(s),
		Mu:    twoport.MuSource(s),
	}
	if p, err := tp.NoiseParams(z0); err == nil {
		m.FminDB = p.FminDB()
	}
	return m, nil
}

// referenceMetricsAt is the element-level reference for
// Amplifier.MetricsAt.
func referenceMetricsAt(amp *core.Amplifier, f, z0 float64) (core.PointMetrics, error) {
	tp, err := referenceNoisy(amp, f)
	if err != nil {
		return core.PointMetrics{}, err
	}
	return referenceMetrics(tp, f, z0)
}

// db20Mag is 20·log10|v|, -Inf for a zero entry.
func db20Mag(v complex128) float64 {
	m := math.Hypot(real(v), imag(v))
	if m <= 0 {
		return math.Inf(-1)
	}
	return mathx.DB20(m)
}

// BatchAmplifierEquivalence demands that the band engine (MetricsBand) and
// its one-point view (MetricsAt) both equal (==) the element-level
// reference at every frequency: every field of every PointMetrics must be
// value-exact.
func BatchAmplifierEquivalence(context string, amp *core.Amplifier, freqs []float64, z0 float64) []Violation {
	var out []Violation
	band, err := amp.MetricsBand(freqs, z0)
	if err != nil {
		return []Violation{violation("batch-differential", context, 0,
			"MetricsBand failed: %v", err)}
	}
	for i, f := range freqs {
		ctx := pointContext(context, freqs, i)
		ref, err := referenceMetricsAt(amp, f, z0)
		if err != nil {
			out = append(out, violation("batch-differential", ctx, 0,
				"element-level reference failed: %v", err))
			continue
		}
		if band[i] != ref {
			out = append(out, violation("batch-differential", ctx, 0,
				"band and reference metrics are not value-identical: %+v vs %+v", band[i], ref))
		}
		view, err := amp.MetricsAt(f, z0)
		if err != nil {
			out = append(out, violation("batch-differential", ctx, 0,
				"MetricsAt failed: %v", err))
			continue
		}
		if view != ref {
			out = append(out, violation("batch-differential", ctx, 0,
				"one-point view and reference metrics are not value-identical: %+v vs %+v", view, ref))
		}
	}
	return out
}

// BatchTwoStageEquivalence demands that the two-stage band grader
// (TwoStage.GradeBand on ws1/ws2, every chain step computed), the
// optimizer's objective (g.Grade, reading the builder's chain tables) and a
// loop of the one-point view (TwoStage.MetricsAt) all reproduce the
// element-level reference: each stage composed by referenceNoisy, the
// stages cascaded, reduced over the in-band grid pts (worst NF, minimum GT,
// min mu - 1) and the stability grid stab (min mu - 1). The three grades
// must be equal (==, NaN matching NaN), and every path must agree on whether
// the cascade can be graded at all. g must grade the builder that built ts
// over pts and stab at z0. The workspaces may carry state from earlier
// calls, which is the rebinding path the optimizer rides.
func BatchTwoStageEquivalence(context string, ws1, ws2 *core.BandWorkspace, g *core.TwoStageGrader, ts *core.TwoStage, pts, stab []float64, z0 float64) []Violation {
	reference := func(f, z0 float64) (core.PointMetrics, error) {
		a, err := referenceNoisy(ts.First, f)
		if err != nil {
			return core.PointMetrics{}, err
		}
		b, err := referenceNoisy(ts.Second, f)
		if err != nil {
			return core.PointMetrics{}, err
		}
		return referenceMetrics(a.Cascade(b), f, z0)
	}
	refNF, refGT, refMargin, refErr := gradePoints(reference, pts, stab, z0)
	var out []Violation
	for _, path := range []struct {
		name  string
		grade func() (nf, gt, margin float64, err error)
	}{
		{"band", func() (float64, float64, float64, error) { return ts.GradeBand(ws1, ws2, pts, stab, z0) }},
		{"tabulated grader", func() (float64, float64, float64, error) {
			nf, gt, margin, pdc, err := g.Grade(ws1, ws2, ts.First.Design, ts.Second.Design)
			if want := ts.PowerDissipation(); err == nil && pdc != want && !(math.IsNaN(pdc) && math.IsNaN(want)) {
				out = append(out, violation("batch-differential", context, math.Abs(pdc-ts.PowerDissipation()),
					"DC power: tabulated grader %v != cascade %v", pdc, ts.PowerDissipation()))
			}
			return nf, gt, margin, err
		}},
		{"one-point view", func() (float64, float64, float64, error) { return gradePoints(ts.MetricsAt, pts, stab, z0) }},
	} {
		nf, gt, margin, err := path.grade()
		if (err == nil) != (refErr == nil) {
			out = append(out, violation("batch-differential", context, 0,
				"error verdicts differ: %s %v, reference %v", path.name, err, refErr))
			continue
		}
		if err != nil {
			continue
		}
		for _, g := range []struct {
			name     string
			got, ref float64
		}{{"worst NF", nf, refNF}, {"min GT", gt, refGT}, {"stability margin", margin, refMargin}} {
			if g.got != g.ref && !(math.IsNaN(g.got) && math.IsNaN(g.ref)) {
				out = append(out, violation("batch-differential", context, math.Abs(g.got-g.ref),
					"%s: %s %v != reference %v", g.name, path.name, g.got, g.ref))
			}
		}
	}
	return out
}

// gradePoints grades a cascade point by point: worst NF, minimum GT and
// min mu - 1 over pts, and min mu - 1 over stab.
func gradePoints(metricsAt func(f, z0 float64) (core.PointMetrics, error), pts, stab []float64, z0 float64) (nf, gt, margin float64, err error) {
	nf, gt, margin = math.Inf(-1), math.Inf(1), math.Inf(1)
	for _, f := range pts {
		m, err := metricsAt(f, z0)
		if err != nil {
			return 0, 0, 0, err
		}
		nf, gt, margin = math.Max(nf, m.NFdB), math.Min(gt, m.GTdB), math.Min(margin, m.Mu-1)
	}
	for _, f := range stab {
		m, err := metricsAt(f, z0)
		if err != nil {
			return 0, 0, 0, err
		}
		margin = math.Min(margin, m.Mu-1)
	}
	return nf, gt, margin, nil
}

// EvaluationEquivalence demands that Designer.Evaluate (the band engine
// over the in-band grid plus its A-only stability scan) equal (==) the
// element-level reference: per-point metrics from referenceNoisy over the
// designer's in-band grid, the same extremes, and the stability margin
// min(mu) - 1 over both grids. The designer should run without a memo so
// the engine, not a cached value, is checked.
func EvaluationEquivalence(context string, d *core.Designer, x core.Design) []Violation {
	ev, err := d.Evaluate(x)
	amp, buildErr := d.Builder.Build(x)
	if buildErr != nil {
		if err == nil {
			return []Violation{violation("batch-differential", context, 0,
				"Evaluate accepted a design Build rejects: %v", buildErr)}
		}
		return nil
	}
	z0 := d.Z0
	if z0 <= 0 {
		z0 = 50
	}
	pts, stab := d.SweepGrids()
	ref := core.Evaluation{
		Design:     x,
		WorstNFdB:  math.Inf(-1),
		MinGTdB:    math.Inf(1),
		WorstS11dB: math.Inf(-1),
		WorstS22dB: math.Inf(-1),
		StabMargin: math.Inf(1),
		IdsA:       amp.Ids(),
		PdcW:       amp.PowerDissipation(),
	}
	var refErr error
	for i, f := range append(pts, stab...) {
		m, err := referenceMetricsAt(amp, f, z0)
		if err != nil {
			refErr = err
			break
		}
		ref.StabMargin = math.Min(ref.StabMargin, m.Mu-1)
		if i >= len(pts) {
			continue
		}
		ref.Points = append(ref.Points, m)
		ref.WorstNFdB = math.Max(ref.WorstNFdB, m.NFdB)
		ref.MinGTdB = math.Min(ref.MinGTdB, m.GTdB)
		ref.WorstS11dB = math.Max(ref.WorstS11dB, m.S11dB)
		ref.WorstS22dB = math.Max(ref.WorstS22dB, m.S22dB)
	}
	if (err == nil) != (refErr == nil) {
		return []Violation{violation("batch-differential", context, 0,
			"error verdicts differ: Evaluate %v, reference %v", err, refErr)}
	}
	if err == nil && !reflect.DeepEqual(ev, ref) {
		return []Violation{violation("batch-differential", context, 0,
			"Evaluate and reference are not value-identical: %+v vs %+v", ev, ref)}
	}
	return nil
}
