package extract

import (
	"fmt"
	"math"
	"sync/atomic"

	"gnsslna/internal/device"
	"gnsslna/internal/twoport"
	"gnsslna/internal/vna"
)

// rfParamCount is the dimension of the RF (capacitance/charging) parameter
// vector fitted in steps 2-3.
const rfParamCount = 11

// rfParamNames documents the RF parameter vector layout.
var rfParamNames = []string{
	"Cgs0", "CgsPinch", "CgsVmid", "CgsVscale",
	"Cgd0", "CgdVscale", "Cds", "Ri", "Tau", "Cpg", "Cpd",
}

// RFBounds returns the search box for the RF parameter vector.
func RFBounds() (lo, hi []float64) {
	lo = []float64{
		0.5e-12, 0.1e-12, 0.0, 0.05,
		0.05e-12, 0.5, 0.1e-12, 0.1, 0, 0.05e-12, 0.05e-12,
	}
	hi = []float64{
		3e-12, 1.5e-12, 0.6, 0.5,
		0.6e-12, 5, 1.5e-12, 5, 6e-12, 0.6e-12, 0.6e-12,
	}
	return lo, hi
}

// applyRF writes an RF parameter vector into a device.
func applyRF(d *device.PHEMT, p []float64) {
	d.Caps.Cgs0 = p[0]
	d.Caps.CgsPinch = p[1]
	d.Caps.CgsVmid = p[2]
	d.Caps.CgsVscale = p[3]
	d.Caps.Cgd0 = p[4]
	d.Caps.CgdVscale = p[5]
	d.Caps.Cds = p[6]
	d.Ri = p[7]
	d.Tau = p[8]
	d.Ext.Cpg = p[9]
	d.Ext.Cpd = p[10]
}

// rfVector reads the RF parameter vector out of a device.
func rfVector(d *device.PHEMT) []float64 {
	return []float64{
		d.Caps.Cgs0, d.Caps.CgsPinch, d.Caps.CgsVmid, d.Caps.CgsVscale,
		d.Caps.Cgd0, d.Caps.CgdVscale, d.Caps.Cds, d.Ri, d.Tau,
		d.Ext.Cpg, d.Ext.Cpd,
	}
}

// ExtBounds returns the search box of the six series parasitics (Rg, Rs,
// Rd, Lg, Ls, Ld) that a builder fitting them appends to the RF vector.
func ExtBounds() (lo, hi []float64) {
	return []float64{0, 0, 0, 0, 0, 0}, []float64{5, 3, 5, 2e-9, 1.5e-9, 2e-9}
}

// sPoint is one measured frequency of a hot sweep.
type sPoint struct {
	f    float64
	want twoport.Mat2
}

// sBias is one hot sweep with the frozen DC model's small-signal
// conductances hoisted out of the candidate loop.
type sBias struct {
	bias    device.Bias
	gm, gds float64
	pts     []sPoint
}

// SResidualBuilder precomputes everything needed to evaluate the S-parameter
// residual of a candidate device against a dataset quickly and repeatedly.
// Evaluations share no mutable state, so concurrent optimizer workers may
// call Residuals and RMSE on one builder.
type SResidualBuilder struct {
	dc  device.DCModel
	ext device.Extrinsics
	z0  float64
	// invNorm holds the reciprocal of each S entry's normalization.
	invNorm [2][2]float64
	// fitExt, when true, appends the six series parasitics to the parameter
	// vector (used by the DE-only baseline which has no step 1).
	fitExt bool
	biases []sBias
	// resLen is the residual-vector length: 8 per measured point.
	resLen int
	// evals is atomic: the optimizers may evaluate residuals from
	// concurrent worker goroutines.
	evals atomic.Int64
}

// NewSResidual builds a residual evaluator for the dataset with the DC model
// fixed (already fitted) and parasitics frozen to ext. The builder hoists
// the DC model's Gm and Gds at every hot bias when it is built, so dc must
// not be mutated afterwards: residuals would keep the old conductances.
func NewSResidual(ds *vna.Dataset, dc device.DCModel, ext device.Extrinsics, fitExt bool) (*SResidualBuilder, error) {
	if ds == nil || len(ds.Hot) == 0 {
		return nil, fmt.Errorf("%w: no hot S-parameter sweeps", ErrInsufficientData)
	}
	b := &SResidualBuilder{dc: dc, ext: ext, z0: ds.Z0, fitExt: fitExt}
	// Normalize each S-parameter entry by its maximum magnitude over the
	// dataset so S21 (magnitude ~5) does not drown S12 (~0.05).
	var norms [2][2]float64
	for _, set := range ds.Hot {
		for _, s := range set.Net.S {
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					if m := absC(s[i][j]); m > norms[i][j] {
						norms[i][j] = m
					}
				}
			}
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if norms[i][j] <= 0 {
				norms[i][j] = 1
			}
			b.invNorm[i][j] = 1 / norms[i][j]
		}
	}
	frozen := &device.PHEMT{DC: dc}
	for _, set := range ds.Hot {
		ss := frozen.SmallSignalAt(set.Bias)
		sb := sBias{bias: set.Bias, gm: ss.Gm, gds: ss.Gds, pts: make([]sPoint, len(set.Net.Freqs))}
		for k, f := range set.Net.Freqs {
			sb.pts[k] = sPoint{f: f, want: set.Net.S[k]}
		}
		b.biases = append(b.biases, sb)
		b.resLen += 8 * len(sb.pts)
	}
	return b, nil
}

// Dim returns the length of the parameter vector the evaluator expects.
func (b *SResidualBuilder) Dim() int {
	if b.fitExt {
		return rfParamCount + 6
	}
	return rfParamCount
}

// Bounds returns the search box matching Dim.
func (b *SResidualBuilder) Bounds() (lo, hi []float64) {
	lo, hi = RFBounds()
	if b.fitExt {
		elo, ehi := ExtBounds()
		lo, hi = append(lo, elo...), append(hi, ehi...)
	}
	return lo, hi
}

// Evals returns the number of residual evaluations so far.
func (b *SResidualBuilder) Evals() int { return int(b.evals.Load()) }

// Device materializes the candidate device a parameter vector describes.
func (b *SResidualBuilder) Device(p []float64) *device.PHEMT {
	d := &device.PHEMT{Name: "candidate"}
	b.fill(d, p)
	return d
}

// Vector is the inverse of Device: the parameter vector describing d.
func (b *SResidualBuilder) Vector(d *device.PHEMT) []float64 {
	p := rfVector(d)
	if b.fitExt {
		p = append(p, d.Ext.Rg, d.Ext.Rs, d.Ext.Rd, d.Ext.Lg, d.Ext.Ls, d.Ext.Ld)
	}
	return p
}

// fill writes the candidate of parameter vector p into d.
func (b *SResidualBuilder) fill(d *device.PHEMT, p []float64) {
	d.DC, d.Ext = b.dc, b.ext
	applyRF(d, p[:rfParamCount])
	if b.fitExt {
		d.Ext.Rg, d.Ext.Rs, d.Ext.Rd = p[11], p[12], p[13]
		d.Ext.Lg, d.Ext.Ls, d.Ext.Ld = p[14], p[15], p[16]
	}
}

// smallSignal is PHEMT.SmallSignalAt of candidate d at the sweep's bias,
// with the frozen DC model's conductances taken from the build.
func (sb *sBias) smallSignal(d *device.PHEMT) device.SmallSignal {
	return device.SmallSignal{
		Gm:  sb.gm,
		Gds: sb.gds,
		Cgs: d.Caps.Cgs(sb.bias.Vgs),
		Cgd: d.Caps.Cgd(sb.bias.Vds),
		Cds: d.Caps.Cds,
		Ri:  d.Ri,
		Tau: d.Tau,
	}
}

// pointResidual returns the normalized residual of one measured point: the
// real and imaginary part of (S - want)/norm for S11, S12, S21, S22. An
// unusable candidate gets a huge flat residual.
func (b *SResidualBuilder) pointResidual(ss device.SmallSignal, ext device.Extrinsics, pt *sPoint) (r [8]float64) {
	got, err := device.SFromSmallSignal(ss, ext, pt.f, b.z0)
	if err != nil {
		return [8]float64{1e3, 1e3, 1e3, 1e3, 1e3, 1e3, 1e3, 1e3}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			dv := got[i][j] - pt.want[i][j]
			r[4*i+2*j] = real(dv) * b.invNorm[i][j]
			r[4*i+2*j+1] = imag(dv) * b.invNorm[i][j]
		}
	}
	return r
}

// Residuals returns the normalized residual vector (real and imaginary part
// of every S-parameter entry at every frequency and bias) in a fresh slice
// the caller may keep.
func (b *SResidualBuilder) Residuals(p []float64) []float64 {
	b.evals.Add(1)
	var d device.PHEMT
	b.fill(&d, p)
	out := make([]float64, 0, b.resLen)
	for i := range b.biases {
		sb := &b.biases[i]
		ss := sb.smallSignal(&d)
		for k := range sb.pts {
			r := b.pointResidual(ss, d.Ext, &sb.pts[k])
			out = append(out, r[:]...)
		}
	}
	return out
}

// RMSE returns the scalar root-mean-square of the normalized residuals. It
// accumulates the squares point by point, in Residuals order, without
// materializing the residual vector.
func (b *SResidualBuilder) RMSE(p []float64) float64 {
	b.evals.Add(1)
	var d device.PHEMT
	b.fill(&d, p)
	var s float64
	for i := range b.biases {
		sb := &b.biases[i]
		ss := sb.smallSignal(&d)
		for k := range sb.pts {
			r := b.pointResidual(ss, d.Ext, &sb.pts[k])
			for _, v := range r {
				s += v * v
			}
		}
	}
	return math.Sqrt(s / float64(b.resLen))
}

// SRMSEOfDevice grades an arbitrary device against a dataset with the same
// normalized metric (used to compare extracted devices to the golden one).
func SRMSEOfDevice(d *device.PHEMT, ds *vna.Dataset) (float64, error) {
	b, err := NewSResidual(ds, d.DC, d.Ext, false)
	if err != nil {
		return 0, err
	}
	return b.RMSE(b.Vector(d)), nil
}

func absC(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}
