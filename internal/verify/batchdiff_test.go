package verify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/optim"
	"gnsslna/internal/rfpassive"
)

// chainCorpus wraps the element corpus as chains and adds the composite
// kinds the batch compiler special-cases: a loaded T-junction and a shunt
// R+L stabilizer branch.
func chainCorpus() map[string]rfpassive.Chain {
	out := make(map[string]rfpassive.Chain)
	for name, e := range elementCorpus() {
		if ch, ok := e.(rfpassive.Chain); ok {
			out[name] = ch
			continue
		}
		out[name] = rfpassive.Chain{e}
	}
	tee := rfpassive.Tee{
		Sub:     rfpassive.RogersRO4350(),
		WMain:   1.7e-3,
		WBranch: 0.55e-3,
		Branch: rfpassive.Chain{
			rfpassive.NewChipInductor(68e-9, rfpassive.Series),
			rfpassive.NewChipCapacitor(100e-12, rfpassive.Shunt),
		},
		BranchLoad: complex(10e3, 0),
	}
	out["loaded tee"] = rfpassive.Chain{tee}
	out["stabilizer R+L"] = rfpassive.Chain{rfpassive.StabilizerRL(75, 3.9e-9)}
	return out
}

// TestBatchChainEquivalence compiles every corpus chain and demands the
// batch path reproduce Chain.Noisy and Chain.ABCD bit-for-bit (==) across
// the full sweep grid.
func TestBatchChainEquivalence(t *testing.T) {
	var r Report
	for name, ch := range chainCorpus() {
		r.Add(BatchChainEquivalence(name, ch, sweepGrid()))
	}
	if !r.OK() {
		t.Error(r.String())
	}
}

// TestBatchDeviceEquivalence sweeps the golden pHEMT over a bias grid and
// demands the hoisted band path (NoisyBandInto, A-only ABCDBandInto) equal
// (==) the per-point NoisyAt at every grid frequency.
func TestBatchDeviceEquivalence(t *testing.T) {
	dev := device.Golden()
	var r Report
	for _, vgs := range []float64{0.40, 0.48, 0.56} {
		for _, vds := range []float64{2, 3, 4} {
			b := device.Bias{Vgs: vgs, Vds: vds}
			ctx := fmt.Sprintf("bias (%.2f, %.2f) V", vgs, vds)
			r.Add(BatchDeviceEquivalence(ctx, dev, b, sweepGrid()))
		}
	}
	if !r.OK() {
		t.Error(r.String())
	}
}

// TestBatchAmplifierEquivalence builds amplifiers across the design box and
// demands MetricsBand and the one-point MetricsAt view equal (==) the
// element-level reference field-for-field on the sweep grid.
func TestBatchAmplifierEquivalence(t *testing.T) {
	b := core.NewBuilder(device.Golden())
	lo, hi := core.DesignBounds()
	grid := sweepGrid()
	built := 0
	for k, x := range boxSamples(lo, hi, 6) {
		amp, err := b.Build(core.DesignFromVector(x))
		if err != nil {
			// Some box corners are unbuildable; the differential claim is
			// only about designs the reference accepts too.
			continue
		}
		built++
		var r Report
		r.Add(BatchAmplifierEquivalence("amp sample", amp, grid, 50))
		if !r.OK() {
			t.Errorf("sample %d: %s", k, r.String())
		}
	}
	if built == 0 {
		t.Fatal("no box sample was buildable; the differential never ran")
	}
}

// TestEvaluationEquivalence grades designs across the box with a memo-free
// designer and demands every Evaluation equal (==) the element-level
// reference, stability scan included.
func TestEvaluationEquivalence(t *testing.T) {
	d := &core.Designer{Builder: core.NewBuilder(device.Golden()), Spec: core.DefaultSpec(), Z0: 50}
	lo, hi := core.DesignBounds()
	var r Report
	for k, x := range boxSamples(lo, hi, 6) {
		r.Add(EvaluationEquivalence(fmt.Sprintf("box sample %d", k), d, core.DesignFromVector(x)))
	}
	if !r.OK() {
		t.Error(r.String())
	}
}

// evalsEqual compares two Evaluations field-for-field, including every
// per-point metric, under floating-point equality.
func evalsEqual(a, b core.Evaluation) bool {
	if a.Design != b.Design ||
		a.WorstNFdB != b.WorstNFdB || a.MinGTdB != b.MinGTdB ||
		a.WorstS11dB != b.WorstS11dB || a.WorstS22dB != b.WorstS22dB ||
		a.StabMargin != b.StabMargin ||
		a.IdsA != b.IdsA || a.PdcW != b.PdcW {
		return false
	}
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}

// memoDesigns draws a deterministic batch of designs from the box, with
// duplicates so a single pass already exercises memo hits.
func memoDesigns() []core.Design {
	lo, hi := core.DesignBounds()
	rng := rand.New(rand.NewSource(4242))
	xs := make([]core.Design, 0, 24)
	for k := 0; k < 16; k++ {
		x := make([]float64, len(lo))
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		xs = append(xs, core.DesignFromVector(x))
	}
	// Every third design repeats: hits inside the same batch.
	for k := 0; k < 8; k++ {
		xs = append(xs, xs[k*2])
	}
	return xs
}

// TestMemoBitIdentityThroughEvalPool grades the same design batch through
// the EvalPool four ways — memo disabled, cold memo, warm memo (all hits),
// and warm memo at several worker counts — and demands bit-identical
// Evaluations and identical journal eval tallies from all of them. A memo
// hit must be observationally indistinguishable from recomputation.
func TestMemoBitIdentityThroughEvalPool(t *testing.T) {
	xs := memoDesigns()
	newDesigner := func(memo *core.EvalMemo) *core.Designer {
		d := core.NewDesigner(core.NewBuilder(device.Golden()))
		d.Spec.NPoints = 5
		d.Memo = memo
		return d
	}
	grade := func(d *core.Designer, workers int) []core.Evaluation {
		out := make([]core.Evaluation, len(xs))
		optim.NewEvalPool(workers).Each(len(xs), func(i int) {
			ev, err := d.Evaluate(xs[i])
			if err != nil {
				t.Errorf("evaluate %d: %v", i, err)
				return
			}
			out[i] = ev
		})
		return out
	}

	plain := newDesigner(nil)
	ref := grade(plain, 1)
	if got, want := plain.EvalCount(), int64(len(xs)); got != want {
		t.Fatalf("memo-disabled eval tally = %d, want %d", got, want)
	}

	memo := core.NewEvalMemo(256)
	cached := newDesigner(memo)
	cold := grade(cached, 1) // first misses; the dupes reach the doorkeeper's admission
	warm := grade(cached, 1) // admitted designs hit, the rest are admitted now
	if got, want := cached.EvalCount(), int64(2*len(xs)); got != want {
		t.Fatalf("memo-enabled eval tally = %d, want %d (hits must still be charged)", got, want)
	}
	st := memo.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("memo saw hits=%d misses=%d; the batch must exercise both paths", st.Hits, st.Misses)
	}
	for i := range xs {
		if !evalsEqual(ref[i], cold[i]) {
			t.Fatalf("design %d: cold-memo evaluation differs from memo-disabled", i)
		}
		if !evalsEqual(ref[i], warm[i]) {
			t.Fatalf("design %d: warm-memo evaluation differs from memo-disabled", i)
		}
	}

	// Restart simulation: a fresh designer sharing the same memo (new
	// builder, new caches) must reproduce the identical results, as must
	// parallel grading at several worker counts.
	for _, workers := range []int{2, 4, 8} {
		restarted := newDesigner(memo)
		par := grade(restarted, workers)
		for i := range xs {
			if !evalsEqual(ref[i], par[i]) {
				t.Fatalf("workers=%d design %d: parallel memo evaluation differs", workers, i)
			}
		}
		if got, want := restarted.EvalCount(), int64(len(xs)); got != want {
			t.Fatalf("workers=%d eval tally = %d, want %d", workers, got, want)
		}
	}
}

// TestBatchTwoStageEquivalence demands the two-stage band grader, the
// tabulated TwoStageGrader and the one-point MetricsAt view equal (==) the
// element-level reference over the two-stage spec's grids, with identical
// error verdicts. The lots span the golden device and three
// GoldenVariant lots on both substrates; the designs are random 12-D points
// in the design box plus hostile ones (each coordinate of either stage set
// to NaN, ±Inf, 0, negative or huge) that drive the non-finite fallbacks
// and the singular-network errors. One workspace pair serves every grade,
// so each call rebinds and recompiles both stages in place.
func TestBatchTwoStageEquivalence(t *testing.T) {
	devs := []*device.PHEMT{device.Golden()}
	for _, seed := range []int64{1, 2, 3} {
		dev, err := device.GoldenVariant(seed)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	subs := map[string]rfpassive.Substrate{"ro4350": rfpassive.RogersRO4350(), "fr4": rfpassive.FR4()}
	lo, hi := core.DesignBounds()
	ref := core.Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	type pair struct{ d1, d2 core.Design }
	var hostile []pair
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5, 1e6} {
		for i := range lo {
			x := ref.Vector()
			x[i] = v
			d := core.DesignFromVector(x)
			hostile = append(hostile, pair{d, ref}, pair{ref, d})
		}
	}
	rng := rand.New(rand.NewSource(13))
	random := func() core.Design {
		x := make([]float64, len(lo))
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		return core.DesignFromVector(x)
	}
	var ws1, ws2 core.BandWorkspace
	graded, failed := 0, 0
	for _, dev := range devs {
		for subName, sub := range subs {
			b := core.NewBuilder(dev)
			b.Sub = sub
			// One grader (one tabulation) per grid size, as OptimizeTwoStage
			// makes one per search.
			graders := map[int]*core.TwoStageGrader{}
			designs := append([]pair(nil), hostile...)
			for i := 0; i < 40; i++ {
				designs = append(designs, pair{random(), random()})
			}
			for i, p := range designs {
				ts, err := b.BuildTwoStage(p.d1, p.d2)
				if err != nil {
					continue
				}
				spec := core.DefaultTwoStageSpec()
				spec.NPoints = []int{3, 11, 21}[i%3]
				pts, stab := (&core.Designer{Spec: spec.Spec}).SweepGrids()
				g := graders[spec.NPoints]
				if g == nil {
					g = b.TwoStageGrader(pts, stab, 50)
					graders[spec.NPoints] = g
				}
				ctx := fmt.Sprintf("%s/%s design %d", dev.Name, subName, i)
				var r Report
				r.Add(BatchTwoStageEquivalence(ctx, &ws1, &ws2, g, ts, pts, stab, 50))
				if !r.OK() {
					t.Error(r.String())
				}
				graded++
				if _, _, _, err := ts.GradeBand(&ws1, &ws2, pts, stab, 50); err != nil {
					failed++
				}
			}
		}
	}
	if graded == 0 || failed == 0 || failed == graded {
		t.Fatalf("graded %d cascades, %d failing: both verdicts must be exercised", graded, failed)
	}
}
