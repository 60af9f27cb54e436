package core

import (
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
)

// Allocation fences for the band engine and the evaluation memo: the whole
// point of the stamp-once/solve-many design is that the steady state runs
// out of reused slabs, so any new allocation on these paths is a
// performance regression the benchmarks would only show as noise. Pinned to
// exactly zero; run under `make verify` (the race pass skips them — the
// detector instruments allocations).

// allocFixture builds an amplifier, a grid and its builder's chain tables
// over that grid.
func allocFixture(t *testing.T) (*Amplifier, []float64, *chainTables) {
	t.Helper()
	b := NewBuilder(device.Golden())
	amp, err := b.Build(Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12})
	if err != nil {
		t.Fatal(err)
	}
	freqs := mathx.Linspace(1.1e9, 1.7e9, 11)
	return amp, freqs, b.tabulate(freqs)
}

// TestMetricsBandIntoZeroAllocSteadyState pins the warmed band evaluation —
// compiled chains bound, slabs sized, chain tables built — to zero
// allocations per grid pass.
func TestMetricsBandIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	amp, freqs, tab := allocFixture(t)
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	dst := make([]PointMetrics, len(freqs))
	if err := amp.metricsBandInto(ws, dst, freqs, 50, tab); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := amp.metricsBandInto(ws, dst, freqs, 50, tab); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MetricsBandInto steady state allocates %.1f times per pass, want 0", n)
	}
}

// TestMuBandIntoZeroAllocSteadyState pins the A-only stability scan the
// same way.
func TestMuBandIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	amp, freqs, tab := allocFixture(t)
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	mus := make([]float64, len(freqs))
	if err := amp.muBandInto(ws, mus, freqs, 50, tab); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := amp.muBandInto(ws, mus, freqs, 50, tab); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("muBandInto steady state allocates %.1f times per pass, want 0", n)
	}
}

// TestBandWorkspaceRebindZeroAlloc pins the recompiling path: a warmed
// workspace pointed at a different amplifier on every pass recompiles both
// chains in place, into the step slabs it already owns, without allocating.
func TestBandWorkspaceRebindZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	amp, freqs, _ := allocFixture(t)
	other, err := NewBuilder(device.Golden()).Build(Design{Vgs: 0.5, Vds: 2.5, LIn: 8.2e-9, LDegen: 0.3e-9, LOut: 3.3e-9, COut: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	ws := new(BandWorkspace)
	dst := make([]PointMetrics, len(freqs))
	mus := make([]float64, len(freqs))
	amps := [2]*Amplifier{amp, other}
	k := 0
	// next alternates the amplifiers call by call, so every call rebinds.
	next := func() *Amplifier {
		k++
		return amps[k%2]
	}
	run := func() {
		if err := next().MetricsBandInto(ws, dst, freqs, 50); err != nil {
			t.Fatal(err)
		}
		if err := next().muBandInto(ws, mus, freqs, 50, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("rebinding a warmed workspace allocates %.1f times per pass, want 0", n)
	}
	if ws.forAmp != amps[k%2] {
		t.Fatal("workspace is not bound to the last amplifier it evaluated")
	}
}

// TestTwoStageGradeBandZeroAlloc pins the two-stage band grader on warmed
// workspaces and chain tables, alternating between two cascades so every
// pass rebinds (and recompiles) both stages.
func TestTwoStageGradeBandZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	b := NewBuilder(device.Golden())
	d1 := Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	d2 := Design{Vgs: 0.5, Vds: 2.5, LIn: 8.2e-9, LDegen: 0.3e-9, LOut: 3.3e-9, COut: 1e-12}
	var cascades [2]*TwoStage
	for i, pair := range [2][2]Design{{d1, d2}, {d2, d1}} {
		ts, err := b.BuildTwoStage(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		cascades[i] = ts
	}
	spec := DefaultTwoStageSpec()
	pts, stab := spec.points(), spec.stabPoints()
	ptsTab, stabTab := b.tabulate(pts), b.tabulate(stab)
	ws1, ws2 := new(BandWorkspace), new(BandWorkspace)
	pass := 0
	run := func() {
		ts := cascades[pass%2]
		pass++
		if _, _, _, err := ts.gradeBand(ws1, ws2, pts, stab, 50, ptsTab, stabTab); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("two-stage GradeBand allocates %.1f times per pass, want 0", n)
	}
}

// TestEvaluateMemoHitZeroAlloc pins the memo hit path: once a design is
// cached, re-evaluating it must not allocate — the serve workers lean on
// this for repeated-spec attempts.
func TestEvaluateMemoHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	d := NewDesigner(NewBuilder(device.Golden()))
	d.Memo = NewEvalMemo(64)
	x := Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	// Two warm-up evaluations: the doorkeeper admits a key on its second
	// miss, so the design is cached only after the second pass.
	for i := 0; i < 2; i++ {
		if _, err := d.Evaluate(x); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.Evaluate(x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("memo-hit Evaluate allocates %.1f times per call, want 0", n)
	}
}

// evaluateAllocCeiling is the allocation count of a warmed, memo-free
// Designer.Evaluate on the default spec: the amplifier build, its point
// slab and the stability scan's. The chain tables are built once per
// designer, so they must add nothing per call.
const evaluateAllocCeiling = 27

// TestEvaluateAllocsPinned pins a warmed, memo-free Designer.Evaluate at
// evaluateAllocCeiling allocations per call.
func TestEvaluateAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	d := NewDesigner(NewBuilder(device.Golden()))
	d.Memo = nil
	x := Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	if _, err := d.Evaluate(x); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.Evaluate(x); err != nil {
			t.Fatal(err)
		}
	}); n > evaluateAllocCeiling {
		t.Fatalf("warmed Evaluate allocates %.1f times per call, want at most %d", n, evaluateAllocCeiling)
	}
}
