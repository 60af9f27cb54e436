package device_test

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/extract"
	"gnsslna/internal/twoport"
)

// kernelTol is the per-entry relative bound between the closed-form
// SFromSmallSignal and the full noisy embedding; |S| is floored at 1e-3 so
// a vanishing entry is compared in absolute terms.
const kernelTol = 1e-11

// randomSmallSignal draws an intrinsic model and parasitics uniformly from
// the extraction search boxes: the RF vector box for the capacitances, Ri,
// Tau and pads, the DE-only box for the series parasitics, and a bias
// inside the campaign's I-V grid for the capacitance laws.
func randomSmallSignal(rng *rand.Rand) (device.SmallSignal, device.Extrinsics) {
	u := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	lo, hi := extract.RFBounds()
	p := make([]float64, len(lo))
	for i := range p {
		p[i] = u(lo[i], hi[i])
	}
	elo, ehi := extract.ExtBounds()
	e := make([]float64, len(elo))
	for i := range e {
		e[i] = u(elo[i], ehi[i])
	}
	caps := device.CapModel{
		Cgs0: p[0], CgsPinch: p[1], CgsVmid: p[2], CgsVscale: p[3],
		Cgd0: p[4], CgdVscale: p[5], Cds: p[6],
	}
	vgs, vds := u(0.2, 0.8), u(0.2, 4)
	ss := device.SmallSignal{
		Gm:  u(0, 0.5),
		Gds: u(1e-9, 0.05),
		Cgs: caps.Cgs(vgs),
		Cgd: caps.Cgd(vds),
		Cds: caps.Cds,
		Ri:  p[7],
		Tau: p[8],
	}
	ex := device.Extrinsics{
		Rg: e[0], Rs: e[1], Rd: e[2], Lg: e[3], Ls: e[4], Ld: e[5],
		Cpg: p[9], Cpd: p[10],
	}
	return ss, ex
}

// embeddedS is the reference: the intrinsic noisy Y embedded by Embed and
// converted through the chain representation.
func embeddedS(ss device.SmallSignal, ex device.Extrinsics, f, z0 float64) (twoport.Mat2, error) {
	y, cy := device.IntrinsicNoisyY(ss, f, 300, 1000)
	tp, err := device.Embed(y, cy, ex, f, 290)
	if err != nil {
		return twoport.Mat2{}, err
	}
	return tp.S(z0)
}

// TestSFromSmallSignalMatchesEmbed fences the closed-form kernel against the
// noisy embedding over 10^5 seeded random models: every entry within
// kernelTol relative, and the same singular verdict. Frequencies span
// 0.1-6 GHz, twice past the campaign band; further up, the reference's own
// chain-matrix round trips lose digits on the small S12 (at 20 GHz the
// embedding disagrees with any direct 2x2 inversion by ~6e-11). Every
// 1000th sample is taken at DC, where the intrinsic Y has a zero first row
// and both paths must report a singular network.
func TestSFromSmallSignalMatchesEmbed(t *testing.T) {
	const n = 100000
	rng := rand.New(rand.NewSource(20150601))
	var worst float64
	singular := 0
	for k := 0; k < n; k++ {
		ss, ex := randomSmallSignal(rng)
		f := math.Exp(math.Log(1e8) + rng.Float64()*math.Log(6e9/1e8))
		if k%1000 == 0 {
			f = 0
		}
		got, errGot := device.SFromSmallSignal(ss, ex, f, 50)
		want, errWant := embeddedS(ss, ex, f, 50)
		if (errGot != nil) != (errWant != nil) {
			t.Fatalf("sample %d (f=%g): verdicts differ: kernel %v, embed %v", k, f, errGot, errWant)
		}
		if errGot != nil {
			if !errors.Is(errGot, twoport.ErrSingularNetwork) {
				t.Fatalf("sample %d: kernel error %v does not wrap ErrSingularNetwork", k, errGot)
			}
			singular++
			continue
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				rel := cmplx.Abs(got[i][j]-want[i][j]) / math.Max(cmplx.Abs(want[i][j]), 1e-3)
				if !(rel <= kernelTol) {
					t.Fatalf("sample %d (f=%g) S%d%d: kernel %v, embed %v (rel %.3g > %g)",
						k, f, i+1, j+1, got[i][j], want[i][j], rel, kernelTol)
				}
				worst = math.Max(worst, rel)
			}
		}
	}
	if singular < n/1000 {
		t.Errorf("only %d singular samples: the verdict check never saw the DC points", singular)
	}
	t.Logf("%d samples, %d singular, worst relative entry error %.3g", n, singular, worst)
}
