package experiments

import (
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/extract"
)

// TestE2TrialsLeaveFittedDCUntouched pins that the E2 method loop fits
// every method against the same DC vector: the three-step trial re-runs the
// DC fit on the model it is handed, which must not be the fitted one the
// baselines read.
func TestE2TrialsLeaveFittedDCUntouched(t *testing.T) {
	ds, err := testSuite.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	dc := device.NewAngelov()
	if _, err := extract.FitDC(dc, ds, 1, 2000); err != nil {
		t.Fatal(err)
	}
	want := dc.Params()
	if _, err := testSuite.e2Trials(ds, dc, 1); err != nil {
		t.Fatalf("e2Trials: %v", err)
	}
	got := dc.Params()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fitted %s changed by the method loop: %g -> %g", dc.ParamNames()[i], want[i], got[i])
		}
	}
}
