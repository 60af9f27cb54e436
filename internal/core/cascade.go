package core

import (
	"fmt"

	"gnsslna/internal/noise"
	"gnsslna/internal/optim"
)

// TwoStage is a cascade of two single-stage amplifiers sharing the same
// transistor type: the topology for receivers that need more gain than one
// stage delivers (e.g. driving a long antenna cable). Friis makes the first
// stage dominate the noise and the second the gain, which is exactly how
// the goal weights are arranged in OptimizeTwoStage.
type TwoStage struct {
	// First and Second are the stages in signal order.
	First, Second *Amplifier
}

// BuildTwoStage materializes both stages from their designs.
func (b *Builder) BuildTwoStage(d1, d2 Design) (*TwoStage, error) {
	first, err := b.Build(d1)
	if err != nil {
		return nil, fmt.Errorf("core: two-stage first: %w", err)
	}
	second, err := b.Build(d2)
	if err != nil {
		return nil, fmt.Errorf("core: two-stage second: %w", err)
	}
	return &TwoStage{First: first, Second: second}, nil
}

// NoisyAt returns the cascade as a noisy two-port at f, from the one-point
// views of both stages.
func (t *TwoStage) NoisyAt(f float64) (noise.TwoPort, error) {
	a, err := t.First.NoisyAt(f)
	if err != nil {
		return noise.TwoPort{}, err
	}
	b, err := t.Second.NoisyAt(f)
	if err != nil {
		return noise.TwoPort{}, err
	}
	return a.Cascade(b), nil
}

// MetricsAt evaluates the cascade at one frequency. Like GradeBand, it
// equals (==) the element-level reference internal/verify composes.
func (t *TwoStage) MetricsAt(f, z0 float64) (PointMetrics, error) {
	tp, err := t.NoisyAt(f)
	if err != nil {
		return PointMetrics{}, err
	}
	return pointMetricsOf(tp, f, z0)
}

// Ids returns the total drain current of both stages.
func (t *TwoStage) Ids() float64 { return t.First.Ids() + t.Second.Ids() }

// PowerDissipation returns the combined DC power of both stages.
func (t *TwoStage) PowerDissipation() float64 {
	return t.First.PowerDissipation() + t.Second.PowerDissipation()
}

// TwoStageSpec extends the single-stage spec with cascade goals.
type TwoStageSpec struct {
	// Spec carries the band and match goals.
	Spec
	// GTMinDB overrides the gain goal for the cascade.
	GTMinDB float64
}

// DefaultTwoStageSpec targets 30 dB cascade gain at under 1 dB noise.
func DefaultTwoStageSpec() TwoStageSpec {
	s := DefaultSpec()
	s.PdcMaxW = 0.5
	return TwoStageSpec{Spec: s, GTMinDB: 30}
}

// TwoStageResult reports the cascade optimization.
type TwoStageResult struct {
	// D1 and D2 are the per-stage designs.
	D1, D2 Design
	// WorstNFdB, MinGTdB, StabMargin, PdcW grade the cascade over the band.
	WorstNFdB, MinGTdB, StabMargin, PdcW float64
	// Gamma is the attainment factor.
	Gamma float64
	// Evals counts band evaluations.
	Evals int
}

// OptimizeTwoStage selects both stages jointly (12 free parameters) with
// the improved goal-attainment method. Every candidate is graded on the band
// engine (TwoStage.GradeBand). The eval tally is the designer's (reset at
// entry, as in Optimize), so EvalCount reports it too and candidates graded
// on concurrent workers count exactly.
func (d *Designer) OptimizeTwoStage(spec TwoStageSpec, opts *optim.AttainOptions) (TwoStageResult, error) {
	d.evals.Store(0)
	lo1, hi1 := DesignBounds()
	lo := append(append([]float64(nil), lo1...), lo1...)
	hi := append(append([]float64(nil), hi1...), hi1...)
	points := spec.points()
	stab := spec.stabPoints()

	evaluate := func(x []float64) (nf, gt, margin, pdc float64, err error) {
		ts, err := d.Builder.BuildTwoStage(DesignFromVector(x[:6]), DesignFromVector(x[6:]))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		ws1, ws2 := getBandWorkspace(), getBandWorkspace()
		nf, gt, margin, err = ts.GradeBand(ws1, ws2, points, stab, d.z0())
		putBandWorkspace(ws1)
		putBandWorkspace(ws2)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		return nf, gt, margin, ts.PowerDissipation(), nil
	}

	obj := func(x []float64) []float64 {
		d.evals.Add(1)
		nf, gt, margin, pdc, err := evaluate(x)
		if err != nil {
			return []float64{99, 99, 99, 99}
		}
		out := []float64{nf, -gt, -margin, pdc}
		if margin <= 0 {
			pen := 50 * (0.02 - margin)
			for i := range out {
				out[i] += pen
			}
		}
		return out
	}
	goals := []optim.Goal{
		{Name: "NFmax", Target: spec.NFMaxDB, Weight: 0.5},
		{Name: "GTmin", Target: -spec.GTMinDB, Weight: 1},
		{Name: "stability", Target: -0.02, Weight: 0.5},
		{Name: "Pdc", Target: spec.PdcMaxW, Weight: 0.2},
	}
	res, err := optim.GoalAttainImproved(obj, goals, lo, hi, opts)
	if err != nil {
		return TwoStageResult{}, fmt.Errorf("core: optimize two-stage: %w", err)
	}
	nf, gt, margin, pdc, err := evaluate(res.X)
	if err != nil {
		return TwoStageResult{}, err
	}
	return TwoStageResult{
		D1:         DesignFromVector(res.X[:6]),
		D2:         DesignFromVector(res.X[6:]),
		WorstNFdB:  nf,
		MinGTdB:    gt,
		StabMargin: margin,
		PdcW:       pdc,
		Gamma:      res.Gamma,
		Evals:      int(d.evals.Load()),
	}, nil
}
