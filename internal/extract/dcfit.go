package extract

import (
	"fmt"
	"math"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/obs"
	"gnsslna/internal/optim"
	"gnsslna/internal/resilience"
	"gnsslna/internal/vna"
)

// DCFitResult reports the DC-model fit of step 2.
type DCFitResult struct {
	// Model is the fitted model (the same instance passed in, mutated).
	Model device.DCModel
	// RMSE is the root-mean-square current error in amperes.
	RMSE float64
	// RelRMSE is the RMSE normalized by the maximum measured current.
	RelRMSE float64
	// Evals counts model evaluations consumed by the fit.
	Evals int
}

// dcResiduals builds the residual vector (model - measurement, normalized)
// for the I-V grid.
func dcResiduals(m device.DCModel, ds *vna.Dataset, scale float64) []float64 {
	r := make([]float64, 0, len(ds.VgsGrid)*len(ds.VdsGrid))
	for i, vgs := range ds.VgsGrid {
		for j, vds := range ds.VdsGrid {
			r = append(r, (m.Ids(vgs, vds)-ds.IV[i][j])/scale)
		}
	}
	return r
}

// DCObjective returns the objective the DC fit's global stage minimizes:
// it writes p into m and returns the RMS of the normalized I-V residuals
// (1e9 for a vector the model rejects). The squares are accumulated in
// dcResiduals order, so the value equals mathx.RMS(dcResiduals(...))
// without the residual slab.
func DCObjective(m device.DCModel, ds *vna.Dataset) func(p []float64) float64 {
	scale := maxCurrent(ds)
	n := float64(len(ds.VgsGrid) * len(ds.VdsGrid))
	return func(p []float64) float64 {
		if err := m.SetParams(p); err != nil {
			return 1e9
		}
		if n == 0 {
			return 0
		}
		var s float64
		for i, vgs := range ds.VgsGrid {
			for j, vds := range ds.VdsGrid {
				r := (m.Ids(vgs, vds) - ds.IV[i][j]) / scale
				s += r * r
			}
		}
		return math.Sqrt(s / n)
	}
}

func maxCurrent(ds *vna.Dataset) float64 {
	var m float64
	for _, row := range ds.IV {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	if m <= 0 {
		m = 1e-3
	}
	return m
}

// FitDC fits the DC model to the dataset's I-V grid: differential evolution
// over the model's parameter bounds followed by a Levenberg-Marquardt
// polish. The model instance is mutated to the fitted parameters.
func FitDC(m device.DCModel, ds *vna.Dataset, seed int64, budget int) (DCFitResult, error) {
	return FitDCObserved(m, ds, seed, budget, nil)
}

// FitDCObserved is FitDC with progress events: the global and refinement
// stages emit convergence records under "extract.step2.dcfit.de" and
// "extract.step2.dcfit.lm".
func FitDCObserved(m device.DCModel, ds *vna.Dataset, seed int64, budget int, o obs.Observer) (DCFitResult, error) {
	return fitDC(m, ds, seed, budget, o, nil)
}

// FitDCControlled is FitDCObserved with a run controller: ctrl (may be
// nil) is polled by the nested DE and LM stages, and a stopped fit
// surfaces as a wrapped *resilience.Stopped error.
func FitDCControlled(m device.DCModel, ds *vna.Dataset, seed int64, budget int, o obs.Observer, ctrl *resilience.RunController) (DCFitResult, error) {
	return fitDC(m, ds, seed, budget, o, ctrl)
}

// fitDC is the controllable core of FitDCObserved: ctrl (may be nil) is
// polled by the nested DE and LM stages.
func fitDC(m device.DCModel, ds *vna.Dataset, seed int64, budget int, o obs.Observer, ctrl *resilience.RunController) (DCFitResult, error) {
	if ds == nil || len(ds.IV) == 0 {
		return DCFitResult{}, fmt.Errorf("%w: no I-V grid", ErrInsufficientData)
	}
	if budget <= 0 {
		budget = 20000
	}
	scale := maxCurrent(ds)
	lo, hi := m.Bounds()
	evals := 0
	rms := DCObjective(m, ds)
	obj := func(p []float64) float64 {
		evals++
		return rms(p)
	}
	pop := 10 * len(lo)
	if pop < 20 {
		pop = 20
	}
	gens := budget / pop
	if gens < 10 {
		gens = 10
	}
	de, err := optim.DifferentialEvolution(obj, lo, hi, &optim.DEOptions{
		Pop: pop, Generations: gens, Seed: seed,
		Observer: o, Scope: "extract.step2.dcfit.de",
		Control: ctrl,
	})
	if err != nil {
		return DCFitResult{}, fmt.Errorf("extract: DC global fit: %w", err)
	}
	resid := func(p []float64) []float64 {
		evals++
		if err := m.SetParams(p); err != nil {
			big := make([]float64, len(ds.IV)*len(ds.IV[0]))
			for i := range big {
				big[i] = 1e6
			}
			return big
		}
		return dcResiduals(m, ds, scale)
	}
	lm, err := optim.LevenbergMarquardt(resid, de.X, &optim.LMOptions{
		MaxIter: 100, Lower: lo, Upper: hi,
		Observer: o, Scope: "extract.step2.dcfit.lm",
		Control: ctrl,
	})
	if err != nil {
		return DCFitResult{}, fmt.Errorf("extract: DC refinement: %w", err)
	}
	if err := m.SetParams(lm.X); err != nil {
		return DCFitResult{}, err
	}
	rel := mathx.RMS(dcResiduals(m, ds, scale))
	return DCFitResult{
		Model:   m,
		RMSE:    rel * scale,
		RelRMSE: rel,
		Evals:   evals,
	}, nil
}
