package rfpassive_test

import (
	"math"
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// sameC reports whether a and b hold the same value part by part, a NaN
// matching a NaN.
func sameC(a, b complex128) bool {
	same := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

func sameMat2(a, b twoport.Mat2) bool {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !sameC(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestTabulatedNonFiniteFallsBack tabulates a tee whose branch input
// impedance is zero (a shorted, branch-less stub), so its tabulated shunt
// admittance is infinite, and demands the tabulated band loops take the
// same generic fallback as the computed ones: every noisy two-port and
// chain matrix equals the uncompiled Chain.Noisy/ABCD, NaN for NaN.
func TestTabulatedNonFiniteFallsBack(t *testing.T) {
	sub := rfpassive.RogersRO4350()
	shorted := rfpassive.Tee{Sub: sub, WMain: 1.7e-3, WBranch: 0.55e-3}
	ch := rfpassive.Chain{
		rfpassive.DCBlock(100e-12),
		shorted,
		rfpassive.NewChipInductor(5.6e-9, rfpassive.Series),
	}
	freqs := mathx.Linspace(0.5e9, 3e9, 7)
	cc := rfpassive.CompileChain(ch)
	tab := make([][]complex128, len(ch))
	for i := range ch {
		tab[i] = cc.Tabulate(i, freqs)
	}
	for k, v := range tab[1] {
		if re, im := real(v), imag(v); re-re == 0 && im-im == 0 {
			t.Fatalf("shorted tee tabulates to a finite %v at %g Hz; the fallback is not exercised", v, freqs[k])
		}
	}
	noisy := cc.NoisyBand(make([]noise.TwoPort, len(freqs)), freqs, tab...)
	abcd := cc.ABCDBand(make([]twoport.Mat2, len(freqs)), freqs, tab...)
	for k, f := range freqs {
		ref := ch.Noisy(f)
		if !sameMat2(noisy[k].A, ref.A) || !sameMat2(noisy[k].CA, ref.CA) {
			t.Errorf("%g Hz: tabulated noisy two-port %+v, Chain.Noisy %+v", f, noisy[k], ref)
		}
		if refA := ch.ABCD(f); !sameMat2(abcd[k], refA) {
			t.Errorf("%g Hz: tabulated chain matrix %v, Chain.ABCD %v", f, abcd[k], refA)
		}
	}
}

// TestTabulateGenericStepIsNil checks that a step with no elementary factor
// (a transmission line) tabulates to nil, which the band loops read as
// "compute here".
func TestTabulateGenericStepIsNil(t *testing.T) {
	line, err := rfpassive.NewLine50(rfpassive.RogersRO4350(), 50, 30, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	cc := rfpassive.CompileChain(rfpassive.Chain{line, rfpassive.DCBlock(100e-12)})
	freqs := []float64{1e9, 2e9}
	if got := cc.Tabulate(0, freqs); got != nil {
		t.Errorf("generic step tabulates to %v, want nil", got)
	}
	if got := cc.Tabulate(1, freqs); len(got) != len(freqs) {
		t.Errorf("series capacitor tabulates to %d values, want %d", len(got), len(freqs))
	}
}
