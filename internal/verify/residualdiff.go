package verify

import (
	"fmt"
	"math"
	"math/cmplx"

	"gnsslna/internal/extract"
	"gnsslna/internal/vna"
)

// Kernel-vs-definition differential for the extraction residual. The
// residual builder evaluates candidates through hoisted per-bias state (the
// frozen DC model's Gm and Gds) and the closed-form device.SFromSmallSignal
// kernel; the reference re-derives every point from the definition, the
// candidate device's full noisy embedding PHEMT.SAt. The arithmetic
// differs, so agreement is bounded rather than value-identical.

// TolResidualKernel is the per-entry relative bound of ResidualEquivalence:
// an S entry may differ from the reference by TolResidualKernel*max(|S|,
// 1e-3), and its residual by that amount over the entry's normalization.
const TolResidualKernel = 1e-11

// ResidualEquivalence demands b.Residuals(p) agree with the residual
// assembled from b.Device(p).SAt at every measured point of ds: each
// normalized S-entry residual within TolResidualKernel of the reference,
// and the flat 1e3 residual exactly where the embedding is singular.
func ResidualEquivalence(context string, ds *vna.Dataset, b *extract.SResidualBuilder, p []float64) []Violation {
	d := b.Device(p)
	got := b.Residuals(p)
	n := 0
	for _, set := range ds.Hot {
		n += 8 * len(set.Net.Freqs)
	}
	if len(got) != n {
		return []Violation{violation("residual-differential", context, 0,
			"residual length %d, want 8 per measured point = %d", len(got), n)}
	}
	norms := residualNorms(ds)
	var out []Violation
	k := 0
	for _, set := range ds.Hot {
		bctx := fmt.Sprintf("%s, bias (%.2f, %.2f) V", context, set.Bias.Vgs, set.Bias.Vds)
		for fi, f := range set.Net.Freqs {
			r := got[k : k+8]
			k += 8
			ctx := pointContext(bctx, set.Net.Freqs, fi)
			s, err := d.SAt(set.Bias, f, ds.Z0)
			if err != nil {
				for _, v := range r {
					if v != 1e3 {
						out = append(out, violation("residual-differential", ctx, 0,
							"embedding is singular (%v) but the kernel returned residual %v", err, r))
						break
					}
				}
				continue
			}
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					want := (s[i][j] - set.Net.S[fi][i][j]) / complex(norms[i][j], 0)
					diff := cmplx.Abs(complex(r[4*i+2*j], r[4*i+2*j+1]) - want)
					bound := TolResidualKernel * math.Max(cmplx.Abs(s[i][j]), 1e-3) / norms[i][j]
					if !(diff <= bound) {
						out = append(out, violation("residual-differential", ctx, diff-bound,
							"S%d%d residual %v, reference %v (|diff| %.3g > %.3g)",
							i+1, j+1, complex(r[4*i+2*j], r[4*i+2*j+1]), want, diff, bound))
					}
				}
			}
		}
	}
	return out
}

// residualNorms is the residual's normalization, derived independently of
// the builder: each S entry's largest measured magnitude (1 if none).
func residualNorms(ds *vna.Dataset) [2][2]float64 {
	var norms [2][2]float64
	for _, set := range ds.Hot {
		for _, s := range set.Net.S {
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					norms[i][j] = math.Max(norms[i][j], cmplx.Abs(s[i][j]))
				}
			}
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if norms[i][j] <= 0 {
				norms[i][j] = 1
			}
		}
	}
	return norms
}
