package verify

import (
	"math"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/noise"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// Batch-vs-per-point differential checks: the band engine (compiled chains,
// hoisted device state, grid-batched metrics) is required to agree with the
// per-point path under floating-point equality (==) — not within a
// tolerance. The elementary fast ops are constructed to perform the same
// scalar arithmetic in the same order as the generic path, so the only
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
// frequency.
func CompiledChainEquivalence(context string, cc *rfpassive.CompiledChain, ch rfpassive.Chain, freqs []float64) []Violation {
	var out []Violation
	for i, f := range freqs {
		ref := ch.Noisy(f)
		got := cc.NoisyAt(f)
		ctx := pointContext(context, freqs, i)
		out = append(out, exactMat2(ctx, "A", got.A, ref.A)...)
		out = append(out, exactMat2(ctx, "CA", got.CA, ref.CA)...)
		out = append(out, exactMat2(ctx, "ABCD", cc.ABCDAt(f), ch.ABCD(f))...)
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

// BatchAmplifierEquivalence demands MetricsBand equal (==) MetricsAt at
// every frequency: every field of every PointMetrics must be value-exact.
func BatchAmplifierEquivalence(context string, amp *core.Amplifier, freqs []float64, z0 float64) []Violation {
	var out []Violation
	band, err := amp.MetricsBand(freqs, z0)
	if err != nil {
		return []Violation{violation("batch-differential", context, 0,
			"MetricsBand failed: %v", err)}
	}
	for i, f := range freqs {
		ref, err := amp.MetricsAt(f, z0)
		if err != nil {
			out = append(out, violation("batch-differential", pointContext(context, freqs, i), 0,
				"MetricsAt failed: %v", err))
			continue
		}
		if band[i] != ref {
			out = append(out, violation("batch-differential", pointContext(context, freqs, i), 0,
				"batch and per-point metrics are not value-identical: %+v vs %+v", band[i], ref))
		}
	}
	return out
}

// BatchTwoStageEquivalence demands that the two-stage band grader
// (TwoStage.GradeBand on ws1/ws2) reproduce the per-point reference — a
// loop of TwoStage.MetricsAt over the in-band grid pts (worst NF, minimum
// GT, min mu - 1) and the stability grid stab (min mu - 1): the three
// grades must be equal (==, NaN matching NaN), and the two paths must agree
// on whether the cascade can be graded at all. The workspaces may carry
// state from earlier calls, which is the rebinding path the optimizer
// rides.
func BatchTwoStageEquivalence(context string, ws1, ws2 *core.BandWorkspace, ts *core.TwoStage, pts, stab []float64, z0 float64) []Violation {
	nf, gt, margin, err := ts.GradeBand(ws1, ws2, pts, stab, z0)
	refNF, refGT, refMargin, refErr := twoStagePointGrade(ts, pts, stab, z0)
	if (err == nil) != (refErr == nil) {
		return []Violation{violation("batch-differential", context, 0,
			"error verdicts differ: band %v, per-point %v", err, refErr)}
	}
	if err != nil {
		return nil
	}
	var out []Violation
	for _, g := range []struct {
		name      string
		band, ref float64
	}{{"worst NF", nf, refNF}, {"min GT", gt, refGT}, {"stability margin", margin, refMargin}} {
		if g.band != g.ref && !(math.IsNaN(g.band) && math.IsNaN(g.ref)) {
			out = append(out, violation("batch-differential", context, math.Abs(g.band-g.ref),
				"%s: band %v != per-point %v", g.name, g.band, g.ref))
		}
	}
	return out
}

// twoStagePointGrade is the per-point two-stage grade: MetricsAt at every
// frequency of both grids.
func twoStagePointGrade(ts *core.TwoStage, pts, stab []float64, z0 float64) (nf, gt, margin float64, err error) {
	nf, gt, margin = math.Inf(-1), math.Inf(1), math.Inf(1)
	for _, f := range pts {
		m, err := ts.MetricsAt(f, z0)
		if err != nil {
			return 0, 0, 0, err
		}
		nf, gt, margin = math.Max(nf, m.NFdB), math.Min(gt, m.GTdB), math.Min(margin, m.Mu-1)
	}
	for _, f := range stab {
		m, err := ts.MetricsAt(f, z0)
		if err != nil {
			return 0, 0, 0, err
		}
		margin = math.Min(margin, m.Mu-1)
	}
	return nf, gt, margin, nil
}
