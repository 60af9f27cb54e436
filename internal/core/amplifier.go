package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync/atomic"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// Design is the vector of free parameters the optimization selects: the
// operating point plus the essential passive elements of the matching
// networks.
type Design struct {
	// Vgs and Vds set the transistor operating point.
	Vgs, Vds float64
	// LIn is the series input matching inductance in henries.
	LIn float64
	// LDegen is the source-degeneration inductance in henries (series
	// feedback improving simultaneous noise/power match).
	LDegen float64
	// LOut is the series output matching inductance in henries.
	LOut float64
	// COut is the shunt output matching capacitance in farads.
	COut float64
}

// Vector flattens the design for the optimizers.
func (d Design) Vector() []float64 {
	return []float64{d.Vgs, d.Vds, d.LIn, d.LDegen, d.LOut, d.COut}
}

// DesignFromVector rebuilds a Design from an optimizer vector.
func DesignFromVector(x []float64) Design {
	return Design{Vgs: x[0], Vds: x[1], LIn: x[2], LDegen: x[3], LOut: x[4], COut: x[5]}
}

// DesignBounds returns the optimizer search box.
func DesignBounds() (lo, hi []float64) {
	return []float64{0.28, 1.5, 0.5e-9, 0.05e-9, 0.3e-9, 0.2e-12},
		[]float64{0.72, 4.2, 16e-9, 2.5e-9, 14e-9, 6e-12}
}

// Amplifier is a fully materialized preamplifier: the device at its bias
// with its input/output networks, ready for frequency-domain evaluation.
// Treat its chains as immutable once built: band workspaces (pooled ones
// included) key their compiled Input/Output chains by the *Amplifier, so a
// chain edited in place would be evaluated stale. Build a new amplifier
// instead.
type Amplifier struct {
	// Dev is the transistor (with LDegen already folded into its common
	// lead).
	Dev *device.PHEMT
	// Bias is the operating point.
	Bias device.Bias
	// Input and Output are the matching/bias networks.
	Input, Output rfpassive.Chain
	// Design records the parameter vector that produced the amplifier.
	Design Design
}

// Builder constructs amplifiers from design vectors over a fixed substrate
// and device.
type Builder struct {
	// Dev is the transistor model used for the design.
	Dev *device.PHEMT
	// Sub is the board substrate for lines and tees.
	Sub rfpassive.Substrate
	// GateBiasR is the gate bias network resistance (high, lightly loads
	// the input); DrainRailR the drain feed rail resistance.
	GateBiasR, DrainRailR float64
	// GateDampR and DrainDampR sit in series with the bias-feed inductors,
	// before the bypass capacitors. Below the band the feed inductors are
	// low impedance, so these resistors damp the low-frequency gain peak
	// that would otherwise make the stage potentially unstable; in band
	// the feed inductors isolate them from the signal path.
	GateDampR, DrainDampR float64
	// StabR and StabL form the R+L shunt stabilizer on the drain side.
	StabR, StabL float64
	// IdealPassives, when set, strips every passive of its loss and
	// parasitics (ideal L and C). The dispersion-ablation experiment uses
	// it to quantify what the paper's careful dispersive element equations
	// buy over a textbook lossless design.
	IdealPassives bool

	// geom caches the substrate-derived tee geometry: the 50-ohm line width
	// (a 100-iteration bisection) and the junction capacitance (two static
	// microstrip fits), both functions of Sub alone. Build runs once per
	// candidate evaluation, so recomputing them dominated the sweep hot
	// path. The cache lives behind a plain pointer so Builder values stay
	// copyable (ablation variants copy the builder and share the cache);
	// inside it an atomic pointer keeps concurrent Build calls race-free,
	// and recomputation after a Sub change is idempotent.
	geom *geomCache
}

// geomCache holds the memoized substrate geometry (nil disables memoization,
// for zero-value Builders that bypassed NewBuilder).
type geomCache struct {
	p atomic.Pointer[builderGeom]
}

// builderGeom is the memoized substrate geometry keyed by the (comparable)
// substrate value it was derived from.
type builderGeom struct {
	sub rfpassive.Substrate
	w50 float64
	cj  float64
	err error
}

// NewBuilder returns a builder on the default low-loss substrate.
func NewBuilder(dev *device.PHEMT) *Builder {
	return &Builder{
		Dev:        dev,
		Sub:        rfpassive.RogersRO4350(),
		GateBiasR:  3300,
		DrainRailR: 10,
		GateDampR:  47,
		DrainDampR: 12,
		StabR:      68,
		StabL:      12e-9,
		geom:       &geomCache{},
	}
}

// inductor and capacitor dispatch between realistic chip models and the
// idealized variants of the ablation study.
func (b *Builder) inductor(l float64, o rfpassive.Orientation) rfpassive.Inductor {
	el := rfpassive.NewChipInductor(l, o)
	if b.IdealPassives {
		el.RDC, el.QRef, el.Cp = 0, 0, 0
	}
	return el
}

func (b *Builder) capacitor(c float64, o rfpassive.Orientation) rfpassive.Capacitor {
	el := rfpassive.NewChipCapacitor(c, o)
	if b.IdealPassives {
		el.RS0, el.TanD, el.ESL = 0, 0, 0
	}
	return el
}

// geometry returns the memoized 50-ohm width and tee junction capacitance
// for the builder's current substrate, computing them on first use (or after
// Sub changed).
func (b *Builder) geometry() (w50, cj float64, err error) {
	if b.geom != nil {
		if g := b.geom.p.Load(); g != nil && g.sub == b.Sub {
			return g.w50, g.cj, g.err
		}
	}
	g := &builderGeom{sub: b.Sub}
	g.w50, g.err = b.Sub.WidthForZ0(50)
	if g.err == nil {
		t := rfpassive.Tee{Sub: b.Sub, WMain: g.w50, WBranch: g.w50 / 3}
		g.cj = t.JunctionCapacitance()
	}
	if b.geom != nil {
		b.geom.p.Store(g)
	}
	return g.w50, g.cj, g.err
}

// biasTee is the damped bias feed both amplifier variants hang off a 50-ohm
// line: the branch is L(feed) -> R(damp) -> C(bypass) -> load (the gate
// bias resistor or the drain rail). In band the 68 nH feed isolates the
// branch; below the band the damping resistor loads the port and
// stabilizes the stage.
func (b *Builder) biasTee(w50, cj, dampR, loadR float64) rfpassive.Tee {
	return rfpassive.Tee{
		Sub:       b.Sub,
		WMain:     w50,
		WBranch:   w50 / 3,
		CJunction: cj,
		Branch: rfpassive.Chain{
			rfpassive.NewChipInductor(68e-9, rfpassive.Series),
			rfpassive.NewChipResistor(dampR, rfpassive.Series),
			rfpassive.NewChipCapacitor(100e-12, rfpassive.Shunt),
		},
		BranchLoad: complex(loadR, 0),
	}
}

// Build materializes the amplifier for a design vector.
func (b *Builder) Build(d Design) (*Amplifier, error) {
	if b.Dev == nil {
		return nil, fmt.Errorf("core: builder has no device")
	}
	w50, cj, err := b.geometry()
	if err != nil {
		return nil, fmt.Errorf("core: substrate: %w", err)
	}
	// The degeneration inductance joins the device's common source lead.
	dev := *b.Dev
	dev.Ext.Ls += d.LDegen
	input, output := b.chains(w50, cj, d)
	return &Amplifier{
		Dev:    &dev,
		Bias:   device.Bias{Vgs: d.Vgs, Vds: d.Vds},
		Input:  input,
		Output: output,
		Design: d,
	}, nil
}

// Build's chain layout marks the steps the design vector sets: the matching
// inductors and the output capacitor. Every other step reads only builder
// fields (chainKey) and the frequency, so its value over a grid is
// tabulated once (chainTables) rather than recomputed for every candidate.
var (
	inputDesignSteps  = [...]bool{false, true, false}
	outputDesignSteps = [...]bool{false, false, true, true, false}
)

// chains builds the input and output networks of design d, in the layout
// inputDesignSteps and outputDesignSteps describe.
func (b *Builder) chains(w50, cj float64, d Design) (input, output rfpassive.Chain) {
	// Input: DC block, series matching inductor, gate bias tee.
	input = rfpassive.Chain{
		rfpassive.DCBlock(100e-12),
		b.inductor(d.LIn, rfpassive.Series),
		b.biasTee(w50, cj, b.GateDampR, b.GateBiasR),
	}

	// Output: drain bias tee (same damped-feed structure), series
	// inductor, shunt capacitor, DC block. The R+L shunt stabilizer loads
	// the drain below the band (where the device gain peaks) and is lifted
	// out of the way in band by its inductor; being on the output it costs
	// gain margin, not noise.
	output = rfpassive.Chain{
		rfpassive.StabilizerRL(b.StabR, b.StabL),
		b.biasTee(w50, cj, b.DrainDampR, b.DrainRailR),
		b.inductor(d.LOut, rfpassive.Series),
		b.capacitor(d.COut, rfpassive.Shunt),
		rfpassive.DCBlock(100e-12),
	}
	return input, output
}

// chainKey is the comparable snapshot of every builder field the
// design-invariant chain steps read (the 50-ohm width and the junction
// capacitance derive from Sub). Chain tables are checked against it, so a
// builder edited between evaluations is retabulated, never read stale.
type chainKey struct {
	sub rfpassive.Substrate

	gateBiasR, drainRailR, gateDampR, drainDampR, stabR, stabL float64
}

func (b *Builder) chainKey() chainKey {
	return chainKey{
		sub:        b.Sub,
		gateBiasR:  b.GateBiasR,
		drainRailR: b.DrainRailR,
		gateDampR:  b.GateDampR,
		drainDampR: b.DrainDampR,
		stabR:      b.StabR,
		stabL:      b.StabL,
	}
}

// chainTables holds the values of Build's design-invariant chain steps over
// one frequency grid: one slab per Input and Output step (nil for the
// design steps), as rfpassive.CompiledChain.Tabulate computes them. The band
// loops read these values where they would compute them, so every result
// is unchanged (==). A nil *chainTables means compute every step.
type chainTables struct {
	in, out [][]complex128
}

// tabulate computes the chain tables of b's current fields over freqs, or
// returns nil (compute every step) when the substrate has no 50-ohm
// geometry, in which case Build fails anyway.
func (b *Builder) tabulate(freqs []float64) *chainTables {
	w50, cj, err := b.geometry()
	if err != nil {
		return nil
	}
	input, output := b.chains(w50, cj, Design{})
	return &chainTables{
		in:  tabulateChain(input, inputDesignSteps[:], freqs),
		out: tabulateChain(output, outputDesignSteps[:], freqs),
	}
}

func tabulateChain(ch rfpassive.Chain, designSteps []bool, freqs []float64) [][]complex128 {
	cc := rfpassive.CompileChain(ch)
	tab := make([][]complex128, len(ch))
	for i, byDesign := range designSteps {
		if !byDesign {
			tab[i] = cc.Tabulate(i, freqs)
		}
	}
	return tab
}

func (t *chainTables) input() [][]complex128 {
	if t == nil {
		return nil
	}
	return t.in
}

func (t *chainTables) output() [][]complex128 {
	if t == nil {
		return nil
	}
	return t.out
}

// NoisyAt returns the complete amplifier as a noisy two-port at f: a
// one-point view of the band engine (see band.go). The element-level
// composition Input.Noisy(f)·Dev.NoisyAt(Bias, f)·Output.Noisy(f) is the
// reference internal/verify checks the engine against.
func (a *Amplifier) NoisyAt(f float64) (noise.TwoPort, error) {
	freqs := [1]float64{f}
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	if err := ws.noisyBandInto(a, freqs[:], nil); err != nil {
		return noise.TwoPort{}, err
	}
	return ws.noisyAt(0), nil
}

// SAt returns the amplifier S-parameters at f referenced to z0.
func (a *Amplifier) SAt(f, z0 float64) (twoport.Mat2, error) {
	tp, err := a.NoisyAt(f)
	if err != nil {
		return twoport.Mat2{}, err
	}
	return tp.S(z0)
}

// PointMetrics summarizes the amplifier at one frequency.
type PointMetrics struct {
	// Freq is the evaluation frequency in Hz.
	Freq float64
	// NFdB is the 50-ohm noise figure in dB.
	NFdB float64
	// FminDB is the minimum possible noise figure in dB at this frequency.
	FminDB float64
	// GTdB is the 50-ohm transducer gain in dB.
	GTdB float64
	// S11dB and S22dB are the port return losses in dB (negative good).
	S11dB, S22dB float64
	// K is the Rollet stability factor; Mu the mu source stability factor.
	K, Mu float64
}

// MetricsAt evaluates the amplifier at one frequency: a one-point view of
// the band engine, reduced by the same pointMetricsOf as MetricsBandInto.
func (a *Amplifier) MetricsAt(f, z0 float64) (PointMetrics, error) {
	tp, err := a.NoisyAt(f)
	if err != nil {
		return PointMetrics{}, err
	}
	return pointMetricsOf(tp, f, z0)
}

// pointMetricsOf reduces the amplifier's noisy two-port at f to its metric
// summary.
func pointMetricsOf(tp noise.TwoPort, f, z0 float64) (PointMetrics, error) {
	s, err := tp.S(z0)
	if err != nil {
		return PointMetrics{}, err
	}
	m := PointMetrics{
		Freq:  f,
		NFdB:  mathx.DB10(tp.FigureY(complex(1/z0, 0))),
		GTdB:  mathx.DB10(twoport.TransducerGain(s, 0, 0)),
		S11dB: db20Mag(s[0][0]),
		S22dB: db20Mag(s[1][1]),
		K:     twoport.RolletK(s),
		Mu:    twoport.MuSource(s),
	}
	if p, err := tp.NoiseParams(z0); err == nil {
		m.FminDB = p.FminDB()
	}
	return m, nil
}

// GroupDelay returns the transmission group delay -d(phase S21)/d(omega) in
// seconds at f, by central difference with relative step rel (1e-4 when
// zero). GNSS receivers are sensitive to group-delay ripple across the
// signal bandwidth, so the verification sweep reports it.
func (a *Amplifier) GroupDelay(f, z0, rel float64) (float64, error) {
	if rel <= 0 {
		rel = 1e-4
	}
	df := f * rel
	freqs := [2]float64{f - df, f + df}
	var s [2]twoport.Mat2
	ws := getBandWorkspace()
	err := a.sBandInto(ws, s[:], freqs[:], z0)
	putBandWorkspace(ws)
	if err != nil {
		return 0, err
	}
	sLo, sHi := s[0], s[1]
	// Unwrapped phase difference via the quotient avoids 2*pi ambiguities
	// for small steps.
	dphi := cmplx.Phase(sHi[1][0] / sLo[1][0])
	return -dphi / (2 * math.Pi * 2 * df), nil
}

// Network renders the amplifier S-parameters over freqs as a Network for
// Touchstone export or VNA comparison.
func (a *Amplifier) Network(freqs []float64, z0 float64) (*twoport.Network, error) {
	mats := make([]twoport.Mat2, len(freqs))
	ws := getBandWorkspace()
	err := a.sBandInto(ws, mats, freqs, z0)
	putBandWorkspace(ws)
	if err != nil {
		return nil, err
	}
	return twoport.NewNetwork(z0, freqs, mats)
}

// Ids returns the drain bias current of the amplifier.
func (a *Amplifier) Ids() float64 { return a.Dev.Ids(a.Bias) }

// PowerDissipation returns the DC power drawn from the drain supply in
// watts.
func (a *Amplifier) PowerDissipation() float64 {
	return a.Ids() * a.Bias.Vds
}

func db20Mag(v complex128) float64 {
	m := math.Hypot(real(v), imag(v))
	if m <= 0 {
		return math.Inf(-1)
	}
	return mathx.DB20(m)
}
