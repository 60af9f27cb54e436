package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/extract"
	"gnsslna/internal/vna"
)

// TestResidualKernelEquivalence runs the residual differential on
// GoldenVariant lots: for each lot's campaign, both builder shapes (step-2
// RF vector, and RF vector plus series parasitics) are checked at the lot's
// own parameters, where the residual sits at the noise floor and the bound
// is tightest, and at random candidates across the search box.
func TestResidualKernelEquivalence(t *testing.T) {
	var r Report
	for _, seed := range []int64{4, 101, 202} {
		dev, err := device.GoldenVariant(seed)
		if err != nil {
			t.Fatalf("variant %d: %v", seed, err)
		}
		ds, err := vna.RunCampaign(dev, vna.DefaultCampaign(seed))
		if err != nil {
			t.Fatalf("variant %d: campaign: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, fitExt := range []bool{false, true} {
			b, err := extract.NewSResidual(ds, dev.DC, dev.Ext, fitExt)
			if err != nil {
				t.Fatalf("variant %d: NewSResidual: %v", seed, err)
			}
			ctx := fmt.Sprintf("variant %d fitExt=%v", seed, fitExt)
			r.Add(ResidualEquivalence(ctx+" at the lot", ds, b, b.Vector(dev)))
			lo, hi := b.Bounds()
			for k := 0; k < 20; k++ {
				p := make([]float64, len(lo))
				for i := range p {
					p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
				}
				r.Add(ResidualEquivalence(fmt.Sprintf("%s candidate %d", ctx, k), ds, b, p))
			}
		}
	}
	if !r.OK() {
		t.Error(r.String())
	}
}
