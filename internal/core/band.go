package core

import (
	"math"
	"sync"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// The band engine evaluates an amplifier over a whole frequency grid in
// structure-of-arrays slabs: the matching networks are compiled once
// (rfpassive.CompiledChain), the device's bias-dependent small-signal model
// is hoisted out of the grid loop (device.BandState), and the per-point
// arithmetic that remains is exactly the per-point path's, so every number
// is equal (==) to what MetricsAt produces (enforced by internal/verify).
// Sweep, Network, GroupDelay, Designer.Evaluate and the two-stage search
// (TwoStage.GradeBand) all ride this path; the per-point methods remain as
// thin views and references.

// BandWorkspace holds the reusable slabs of one band evaluation. A zero
// workspace is ready to use; reusing one across calls with the same grid
// size makes the steady state allocation-free, even when each call binds a
// different amplifier (the chains are recompiled in place). Not safe for
// concurrent use.
type BandWorkspace struct {
	// forAmp keys the compiled chains: compilation reruns, into the chains
	// the workspace already owns, when it is pointed at a different
	// amplifier.
	forAmp      *Amplifier
	ccIn, ccOut rfpassive.CompiledChain

	in, out, dev []noise.TwoPort
	abcd         []twoport.Mat2
}

var bandPool = sync.Pool{New: func() any { return new(BandWorkspace) }}

func getBandWorkspace() *BandWorkspace   { return bandPool.Get().(*BandWorkspace) }
func putBandWorkspace(ws *BandWorkspace) { bandPool.Put(ws) }

// bind points the workspace's compiled chains at a.
func (ws *BandWorkspace) bind(a *Amplifier) {
	if ws.forAmp != a {
		ws.forAmp = a
		ws.ccIn.Compile(a.Input)
		ws.ccOut.Compile(a.Output)
	}
}

// noisyBandInto binds the workspace to a and fills its noisy-two-port slabs
// with the amplifier's three sections (input chain, device, output chain)
// at every grid frequency.
func (ws *BandWorkspace) noisyBandInto(a *Amplifier, freqs []float64) error {
	ws.bind(a)
	n := len(freqs)
	if cap(ws.in) < n {
		ws.in = make([]noise.TwoPort, n)
		ws.out = make([]noise.TwoPort, n)
		ws.dev = make([]noise.TwoPort, n)
	}
	ws.in = ws.in[:n]
	ws.out = ws.out[:n]
	ws.dev = ws.dev[:n]
	if err := a.Dev.NoisyBandInto(ws.dev, a.Bias, freqs); err != nil {
		return err
	}
	ws.ccIn.NoisyBand(ws.in, freqs)
	ws.ccOut.NoisyBand(ws.out, freqs)
	return nil
}

// noisyAt cascades the sections filled by noisyBandInto at grid point i, in
// the association order of Amplifier.NoisyAt.
func (ws *BandWorkspace) noisyAt(i int) noise.TwoPort {
	return ws.in[i].Cascade(ws.dev[i]).Cascade(ws.out[i])
}

// abcdBandInto binds the workspace to a and fills its chain-matrix slab
// (three consecutive sections of one backing array: input chain, device,
// output chain) at every grid frequency: the A-only stability path.
func (ws *BandWorkspace) abcdBandInto(a *Amplifier, freqs []float64) error {
	ws.bind(a)
	n := len(freqs)
	if cap(ws.abcd) < 3*n {
		ws.abcd = make([]twoport.Mat2, 3*n)
	}
	ws.abcd = ws.abcd[:3*n]
	if err := a.Dev.ABCDBandInto(ws.abcd[n:2*n], a.Bias, freqs); err != nil {
		return err
	}
	ws.ccIn.ABCDBand(ws.abcd[:n], freqs)
	ws.ccOut.ABCDBand(ws.abcd[2*n:], freqs)
	return nil
}

// abcdAt cascades the chain matrices filled by abcdBandInto at grid point
// i, in the association order of Amplifier.NoisyAt.
func (ws *BandWorkspace) abcdAt(i int) twoport.Mat2 {
	n := len(ws.abcd) / 3
	return ws.abcd[i].Mul(ws.abcd[n+i]).Mul(ws.abcd[2*n+i])
}

// MetricsBandInto evaluates the amplifier at every frequency of the grid,
// writing into dst (same length as freqs). Each point equals (==) the
// MetricsAt result at that frequency.
func (a *Amplifier) MetricsBandInto(ws *BandWorkspace, dst []PointMetrics, freqs []float64, z0 float64) error {
	if err := ws.noisyBandInto(a, freqs); err != nil {
		return err
	}
	for i, f := range freqs {
		m, err := pointMetricsOf(ws.noisyAt(i), f, z0)
		if err != nil {
			return err
		}
		dst[i] = m
	}
	return nil
}

// MetricsBand evaluates the amplifier over the grid, allocating the result
// (the Into variant reuses workspaces for allocation-free steady state).
func (a *Amplifier) MetricsBand(freqs []float64, z0 float64) ([]PointMetrics, error) {
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	out := make([]PointMetrics, len(freqs))
	if err := a.MetricsBandInto(ws, out, freqs, z0); err != nil {
		return nil, err
	}
	return out, nil
}

// sBandInto writes the amplifier S-parameters at every grid frequency into
// dst, riding the same batch path as MetricsBandInto (each point equals the
// per-point SAt).
func (a *Amplifier) sBandInto(ws *BandWorkspace, dst []twoport.Mat2, freqs []float64, z0 float64) error {
	if err := ws.noisyBandInto(a, freqs); err != nil {
		return err
	}
	for i := range freqs {
		s, err := ws.noisyAt(i).S(z0)
		if err != nil {
			return err
		}
		dst[i] = s
	}
	return nil
}

// muBandInto writes the mu source-stability factor at every grid frequency
// into dst via the A-only fast path: S (hence mu) depends only on the chain
// matrices, so the noise-correlation congruences — most of the full path's
// cost — are skipped. device.EmbedABCD and the compiled chains replay the
// full path's A-side arithmetic exactly, so each mu equals (==) the
// MetricsAt Mu at that frequency.
func (a *Amplifier) muBandInto(ws *BandWorkspace, dst []float64, freqs []float64, z0 float64) error {
	if err := ws.abcdBandInto(a, freqs); err != nil {
		return err
	}
	for i := range freqs {
		s, err := twoport.ABCDToS(ws.abcdAt(i), z0)
		if err != nil {
			return err
		}
		dst[i] = twoport.MuSource(s)
	}
	return nil
}

// GradeBand grades the cascade on the band engine, one workspace per stage:
// the worst noise figure and minimum transducer gain over the in-band grid
// pts, and the stability margin min(mu) - 1 over both pts and the
// stability grid stab. Each value equals (==) the one a loop of per-point
// MetricsAt calls over the same grids produces (enforced by
// internal/verify), and it fails exactly when that loop fails. In band
// each stage's in·dev·out is cascaded as in NoisyAt; the stability grid
// only needs mu, so it rides the A-only chain matrices. With warmed
// workspaces the grade is allocation-free.
func (t *TwoStage) GradeBand(ws1, ws2 *BandWorkspace, pts, stab []float64, z0 float64) (nfDB, gtDB, margin float64, err error) {
	nfDB, gtDB, margin = math.Inf(-1), math.Inf(1), math.Inf(1)
	if err := ws1.noisyBandInto(t.First, pts); err != nil {
		return 0, 0, 0, err
	}
	if err := ws2.noisyBandInto(t.Second, pts); err != nil {
		return 0, 0, 0, err
	}
	ys := complex(1/z0, 0)
	for i := range pts {
		tp := ws1.noisyAt(i).Cascade(ws2.noisyAt(i))
		s, err := tp.S(z0)
		if err != nil {
			return 0, 0, 0, err
		}
		nfDB = math.Max(nfDB, mathx.DB10(tp.FigureY(ys)))
		gtDB = math.Min(gtDB, mathx.DB10(twoport.TransducerGain(s, 0, 0)))
		margin = math.Min(margin, twoport.MuSource(s)-1)
	}
	if err := ws1.abcdBandInto(t.First, stab); err != nil {
		return 0, 0, 0, err
	}
	if err := ws2.abcdBandInto(t.Second, stab); err != nil {
		return 0, 0, 0, err
	}
	for i := range stab {
		s, err := twoport.ABCDToS(ws1.abcdAt(i).Mul(ws2.abcdAt(i)), z0)
		if err != nil {
			return 0, 0, 0, err
		}
		margin = math.Min(margin, twoport.MuSource(s)-1)
	}
	return nfDB, gtDB, margin, nil
}
