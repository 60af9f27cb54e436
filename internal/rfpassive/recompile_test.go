package rfpassive_test

import (
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/verify"
)

// TestCompileInPlaceLeavesNoStaleStep recompiles chains of different
// lengths and element kinds into one CompiledChain and demands that, after
// every recompilation, it reproduce the chain it was last given (==, the
// BatchChainEquivalence contract): no step, element, temperature or frozen
// junction capacitance of an earlier chain may survive.
func TestCompileInPlaceLeavesNoStaleStep(t *testing.T) {
	sub := rfpassive.RogersRO4350()
	line, err := rfpassive.NewLine50(sub, 50, 30, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	tee := func(wMain, wBranch float64, load complex128) rfpassive.Tee {
		return rfpassive.Tee{
			Sub: sub, WMain: wMain, WBranch: wBranch,
			Branch: rfpassive.Chain{
				rfpassive.NewChipInductor(68e-9, rfpassive.Series),
				rfpassive.NewChipCapacitor(100e-12, rfpassive.Shunt),
			},
			BranchLoad: load,
		}
	}
	hot := rfpassive.NewChipResistor(47, rfpassive.Shunt)
	hot.Temp = 400
	chains := map[string]rfpassive.Chain{
		"long": {
			rfpassive.DCBlock(100e-12),
			rfpassive.NewChipInductor(5.6e-9, rfpassive.Series),
			tee(1.7e-3, 0.55e-3, 10e3),
			rfpassive.StabilizerRL(75, 3.9e-9),
			line,
			rfpassive.NewChipCapacitor(0.5e-12, rfpassive.Shunt),
		},
		"short": {
			tee(1.1e-3, 0.3e-3, 50),
			hot,
		},
		"reordered": {
			hot,
			rfpassive.NewChipCapacitor(0.5e-12, rfpassive.Series),
			rfpassive.StabilizerRL(120, 10e-9),
			tee(1.7e-3, 0.55e-3, 10e3),
		},
	}
	freqs := mathx.Logspace(50e6, 20e9, 24)
	cc := rfpassive.CompileChain(chains["long"])
	for _, name := range []string{"short", "long", "reordered", "short", "reordered", "long"} {
		cc.Compile(chains[name])
		var r verify.Report
		r.Add(verify.CompiledChainEquivalence("recompiled "+name, cc, chains[name], freqs))
		if !r.OK() {
			t.Error(r.String())
		}
	}
}
