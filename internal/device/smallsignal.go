package device

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// Bias is a DC operating point of the transistor.
type Bias struct {
	// Vgs is the gate-source voltage in volts.
	Vgs float64
	// Vds is the drain-source voltage in volts.
	Vds float64
}

// SmallSignal holds the intrinsic small-signal equivalent-circuit elements
// at one bias point.
type SmallSignal struct {
	// Gm is the transconductance in siemens.
	Gm float64
	// Gds is the output conductance in siemens.
	Gds float64
	// Cgs is the gate-source capacitance in farads.
	Cgs float64
	// Cgd is the gate-drain (feedback) capacitance in farads.
	Cgd float64
	// Cds is the drain-source capacitance in farads.
	Cds float64
	// Ri is the intrinsic channel charging resistance in ohms.
	Ri float64
	// Tau is the transconductance delay in seconds.
	Tau float64
}

// Extrinsics holds the bias-independent parasitic elements surrounding the
// intrinsic device.
type Extrinsics struct {
	// Rg, Rs, Rd are the terminal resistances in ohms.
	Rg, Rs, Rd float64
	// Lg, Ls, Ld are the terminal inductances in henries.
	Lg, Ls, Ld float64
	// Cpg, Cpd are the pad capacitances in farads.
	Cpg, Cpd float64
}

// ErrBadBias reports an unusable bias point (e.g. zero transconductance
// where gain is required).
var ErrBadBias = errors.New("device: bias point yields no usable small-signal model")

// IntrinsicY returns the admittance matrix of the intrinsic equivalent
// circuit at angular frequency derived from f (Hz).
func IntrinsicY(ss SmallSignal, f float64) twoport.Mat2 {
	w := 2 * math.Pi * f
	d := complex(1, w*ss.Cgs*ss.Ri)
	ygs := complex(0, w*ss.Cgs) / d
	ygd := complex(0, w*ss.Cgd)
	ym := complex(ss.Gm, 0) * cmplx.Exp(complex(0, -w*ss.Tau)) / d
	return twoport.Mat2{
		{ygs + ygd, -ygd},
		{ym - ygd, complex(ss.Gds, w*ss.Cds) + ygd},
	}
}

// IntrinsicNoisyY returns the intrinsic admittance matrix together with its
// Pospieszalski noise correlation matrix (normalized to 4kT0) for gate
// temperature tg and drain temperature td (kelvin).
func IntrinsicNoisyY(ss SmallSignal, f, tg, td float64) (y, cy twoport.Mat2) {
	w := 2 * math.Pi * f
	d := complex(1, w*ss.Cgs*ss.Ri)
	ygs := complex(0, w*ss.Cgs) / d
	ym := complex(ss.Gm, 0) * cmplx.Exp(complex(0, -w*ss.Tau)) / d
	y = IntrinsicY(ss, f)
	// Noise sources: e_ri in series with Ri at Tg drives short-circuit
	// currents j1 = Ygs*e at the gate and j2 = Ym*e at the drain; the drain
	// current source i_d (gds at Td) adds directly at port 2, uncorrelated.
	riTerm := ss.Ri * tg / mathx.T0
	cy[0][0] = complex(sqAbs(ygs)*riTerm, 0)
	cy[0][1] = ygs * cmplx.Conj(ym) * complex(riTerm, 0)
	cy[1][0] = cmplx.Conj(cy[0][1])
	cy[1][1] = complex(sqAbs(ym)*riTerm+ss.Gds*td/mathx.T0, 0)
	return y, cy
}

// Embed surrounds the intrinsic noisy two-port with the extrinsic
// parasitics: series gate/drain impedances, the common-lead source
// impedance (added to every Z entry), and shunt pad capacitances. Resistive
// parasitics contribute thermal noise at ambient temperature ta.
func Embed(yInt, cyInt twoport.Mat2, ex Extrinsics, f, ta float64) (noise.TwoPort, error) {
	w := 2 * math.Pi * f
	tp, err := noise.FromY(yInt, cyInt)
	if err != nil {
		return noise.TwoPort{}, fmt.Errorf("device: embed intrinsic: %w", err)
	}
	z, cz, err := tp.ToZ()
	if err != nil {
		return noise.TwoPort{}, fmt.Errorf("device: embed to Z: %w", err)
	}
	zg := complex(ex.Rg, w*ex.Lg)
	zs := complex(ex.Rs, w*ex.Ls)
	zd := complex(ex.Rd, w*ex.Ld)
	tn := ta / mathx.T0
	// Common-lead impedance adds to every entry of Z (series feedback).
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z[i][j] += zs
			cz[i][j] += complex(ex.Rs*tn, 0)
		}
	}
	z[0][0] += zg
	cz[0][0] += complex(ex.Rg*tn, 0)
	z[1][1] += zd
	cz[1][1] += complex(ex.Rd*tn, 0)
	tp, err = noise.FromZ(z, cz)
	if err != nil {
		return noise.TwoPort{}, fmt.Errorf("device: embed from Z: %w", err)
	}
	// Pad capacitances shunt the external ports (lossless, noiseless).
	y, cy, err := tp.ToY()
	if err != nil {
		return noise.TwoPort{}, fmt.Errorf("device: embed pads: %w", err)
	}
	y[0][0] += complex(0, w*ex.Cpg)
	y[1][1] += complex(0, w*ex.Cpd)
	return noise.FromY(y, cy)
}

// SFromSmallSignal returns the embedded S-parameters of an intrinsic
// small-signal model inside the given extrinsics, without noise bookkeeping.
// It is the extraction residual's kernel: the same Y -> Z -> add parasitics
// -> Y -> add pads -> S sequence as Embed, minus the noise-correlation
// congruence transforms that are pure overhead on a zero correlation
// matrix, written out in closed form on the 2x2 entries. Each of the three
// inversions (Y -> Z, Z -> Y, and the (I+Yn)^-1 of Y -> S) takes one
// reciprocal of its determinant and keeps the singular predicate of
// twoport.Mat2.Inv, |det| <= 1e-12*r1*r2 over the row 1-norms, and fails
// with an error matching twoport.ErrSingularNetwork.
func SFromSmallSignal(ss SmallSignal, ex Extrinsics, f, z0 float64) (twoport.Mat2, error) {
	w := 2 * math.Pi * f
	// Intrinsic Y: the gate charging branch divides by 1 + jw*Cgs*Ri.
	rc := w * ss.Cgs * ss.Ri
	k := 1 / (1 + rc*rc)
	invd := complex(k, -rc*k)
	sin, cos := math.Sincos(w * ss.Tau)
	ygs := complex(0, w*ss.Cgs) * invd
	ygd := complex(0, w*ss.Cgd)
	ym := complex(ss.Gm*cos, -ss.Gm*sin) * invd
	y11, y12 := ygs+ygd, -ygd
	y21, y22 := ym-ygd, complex(ss.Gds, w*ss.Cds)+ygd

	z11, z12, z21, z22, ok := inv2(y11, y12, y21, y22)
	if !ok {
		return twoport.Mat2{}, fmt.Errorf("device: embed to Z: %w", twoport.ErrSingularNetwork)
	}
	// Common-lead impedance adds to every entry of Z (series feedback).
	zs := complex(ex.Rs, w*ex.Ls)
	z11 += zs
	z12 += zs
	z21 += zs
	z22 += zs
	z11 += complex(ex.Rg, w*ex.Lg)
	z22 += complex(ex.Rd, w*ex.Ld)
	y11, y12, y21, y22, ok = inv2(z11, z12, z21, z22)
	if !ok {
		return twoport.Mat2{}, fmt.Errorf("device: embed pads: %w", twoport.ErrSingularNetwork)
	}
	// Pad capacitances shunt the external ports (lossless).
	y11 += complex(0, w*ex.Cpg)
	y22 += complex(0, w*ex.Cpd)

	// S = (I+Yn)^-1 (I-Yn) on the z0-normalized Yn = [[a, b], [c, d]].
	a, b := scaleC(y11, z0), scaleC(y12, z0)
	c, d := scaleC(y21, z0), scaleC(y22, z0)
	pa, pd := 1+a, 1+d
	bc := b * c
	den := pa*pd - bc
	if singular(den, pa, b, c, pd) {
		return twoport.Mat2{}, twoport.ErrSingularNetwork
	}
	r := recip(den)
	return twoport.Mat2{
		{(pd*(1-a) + bc) * r, -2 * b * r},
		{-2 * c * r, (bc + pa*(1-d)) * r},
	}, nil
}

// inv2 inverts [[a, b], [c, d]] through one reciprocal of the determinant;
// ok is false when Mat2.Inv would report the matrix singular.
func inv2(a, b, c, d complex128) (ia, ib, ic, id complex128, ok bool) {
	det := a*d - b*c
	if singular(det, a, b, c, d) {
		return 0, 0, 0, 0, false
	}
	r := recip(det)
	return d * r, -b * r, -c * r, a * r, true
}

// singular is the predicate of twoport.Mat2.Inv for [[a, b], [c, d]] with
// determinant det: |det| <= 1e-12*(|a|+|b|)*(|c|+|d|). Since
// (|a|+|b|)^2 <= 2(|a|^2+|b|^2), a determinant above the squared bound
// clears it without a square root; only a near-singular matrix pays for the
// exact test.
func singular(det, a, b, c, d complex128) bool {
	if sqAbs(det) > 4e-24*(sqAbs(a)+sqAbs(b))*(sqAbs(c)+sqAbs(d)) {
		return false
	}
	return cmplx.Abs(det) <= 1e-12*(cmplx.Abs(a)+cmplx.Abs(b))*(cmplx.Abs(c)+cmplx.Abs(d))
}

// recip returns 1/v as the conjugate over |v|^2, without the overflow
// scaling of complex division: immittances of physical element values are
// many decades away from the float64 range limits.
func recip(v complex128) complex128 {
	k := 1 / sqAbs(v)
	return complex(real(v)*k, -imag(v)*k)
}

// scaleC returns v*k for real k with two multiplications.
func scaleC(v complex128, k float64) complex128 {
	return complex(real(v)*k, imag(v)*k)
}

// FT returns the short-circuit current-gain cutoff frequency of the
// intrinsic model.
func (ss SmallSignal) FT() float64 {
	ctot := ss.Cgs + ss.Cgd
	if ctot <= 0 {
		return 0
	}
	return ss.Gm / (2 * math.Pi * ctot)
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }
