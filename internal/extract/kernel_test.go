package extract

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
)

// TestResidualObjectivesDoNotAllocate pins the two DE objectives of the
// extraction, the S-residual RMSE and the DC fit's I-V RMS, at zero heap
// allocations per call.
func TestResidualObjectivesDoNotAllocate(t *testing.T) {
	ds := testDataset(t, 91)
	g := device.Golden()
	b, err := NewSResidual(ds, g.DC, g.Ext, true)
	if err != nil {
		t.Fatal(err)
	}
	p := b.Vector(g)
	if a := testing.AllocsPerRun(50, func() { b.RMSE(p) }); a != 0 {
		t.Errorf("SResidualBuilder.RMSE allocates %v per call, want 0", a)
	}
	m := device.NewAngelov()
	obj := DCObjective(m, ds)
	q := g.DC.Params()
	if a := testing.AllocsPerRun(50, func() { obj(q) }); a != 0 {
		t.Errorf("DC objective allocates %v per call, want 0", a)
	}
}

// TestResidualObjectivesMatchResidualVectors pins the fused sums to the
// residual vectors the LM stages use: RMSE is the RMS of Residuals and the
// DC objective the RMS of dcResiduals, value for value.
func TestResidualObjectivesMatchResidualVectors(t *testing.T) {
	ds := testDataset(t, 93)
	g := device.Golden()
	b, err := NewSResidual(ds, g.DC, g.Ext, false)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := b.Bounds()
	for _, p := range [][]float64{b.Vector(g), lo, hi} {
		if got, want := b.RMSE(p), mathx.RMS(b.Residuals(p)); got != want {
			t.Errorf("RMSE = %v, RMS(Residuals) = %v", got, want)
		}
	}
	m := device.NewAngelov()
	obj := DCObjective(m, ds)
	for _, p := range [][]float64{g.DC.Params(), device.NewAngelov().Params()} {
		got := obj(p)
		if want := mathx.RMS(dcResiduals(m, ds, maxCurrent(ds))); got != want {
			t.Errorf("DC objective = %v, RMS(dcResiduals) = %v", got, want)
		}
	}
	if got := obj([]float64{1}); got != 1e9 {
		t.Errorf("rejected DC vector scores %v, want 1e9", got)
	}
}

// TestRMSEConcurrentBitIdentical evaluates RMSE from GOMAXPROCS goroutines
// on one builder, as the parallel DE workers do, and demands every value
// equal the serial one bit for bit and every call be counted. Run under
// -race it also proves the evaluation shares no mutable state.
func TestRMSEConcurrentBitIdentical(t *testing.T) {
	ds := testDataset(t, 97)
	g := device.Golden()
	b, err := NewSResidual(ds, g.DC, g.Ext, true)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := b.Bounds()
	cands := [][]float64{b.Vector(g), lo, hi}
	serial := make([]float64, len(cands))
	for i, p := range cands {
		serial[i] = b.RMSE(p)
	}
	workers := runtime.GOMAXPROCS(0)
	const rounds = 20
	before := b.Evals()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				for i, p := range cands {
					if v := b.RMSE(p); math.Float64bits(v) != math.Float64bits(serial[i]) {
						errs <- "concurrent RMSE differs from the serial value"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got, want := b.Evals()-before, workers*rounds*len(cands); got != want {
		t.Errorf("evals counted %d, want %d", got, want)
	}
}
