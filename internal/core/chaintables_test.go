package core

import (
	"fmt"
	"reflect"
	"testing"

	"gnsslna/internal/device"
)

var (
	tablesDesignA = Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	tablesDesignB = Design{Vgs: 0.5, Vds: 2.5, LIn: 8.2e-9, LDegen: 0.3e-9, LOut: 3.3e-9, COut: 1e-12}
)

// plainDesigner is a memo-free designer on b, so every Evaluate runs the
// band engine.
func plainDesigner(b *Builder) *Designer {
	return &Designer{Builder: b, Spec: DefaultSpec(), Z0: 50}
}

// freshEvaluate grades x on a new designer over a copy of b with its own
// geometry cache: the reference a designer whose builder was edited in
// place must reproduce.
func freshEvaluate(b *Builder, x Design) (Evaluation, error) {
	fresh := *b
	fresh.geom = &geomCache{}
	return plainDesigner(&fresh).Evaluate(x)
}

// builderLeaves returns every scalar field of the builder (substrate fields
// included) except the device, the geometry cache and IdealPassives, which
// only the design steps read. A field added to Builder or Substrate shows up
// here, and TestChainTablesFollowBuilderEdits then demands the chain tables
// follow it.
func builderLeaves(b *Builder) map[string]reflect.Value {
	leaves := map[string]reflect.Value{}
	v := reflect.ValueOf(b).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		switch f.Name {
		case "Dev", "geom", "IdealPassives":
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			for j := 0; j < f.Type.NumField(); j++ {
				leaves[f.Name+"."+f.Type.Field(j).Name] = v.Field(i).Field(j)
			}
			continue
		}
		leaves[f.Name] = v.Field(i)
	}
	return leaves
}

// TestChainTablesFollowBuilderEdits edits each builder field the invariant
// steps may read between two Evaluate calls on one designer, and demands the
// second result equal (==) a fresh designer's: the designer retabulates
// rather than reading the tables of the builder it had before. The fields
// the bias tees, DC blocks and stabilizer do read must move the result, or
// the check would be vacuous; the substrate's loss fields only load lines,
// which Build does not place.
func TestChainTablesFollowBuilderEdits(t *testing.T) {
	mustMove := map[string]bool{
		"Sub.Er": true, "Sub.H": true, "Sub.Temp": true,
		"GateBiasR": true, "DrainRailR": true, "GateDampR": true,
		"DrainDampR": true, "StabR": true, "StabL": true,
	}
	b := NewBuilder(device.Golden())
	d := plainDesigner(b)
	before, err := d.Evaluate(tablesDesignA)
	if err != nil {
		t.Fatal(err)
	}
	for name, leaf := range builderLeaves(b) {
		if leaf.Kind() != reflect.Float64 {
			t.Fatalf("%s: field kind %s has no perturbation; add it to chainKey if the invariant steps read it, and extend this test", name, leaf.Kind())
		}
		old := leaf.Float()
		leaf.SetFloat(old*1.5 + 0.125)
		got, gotErr := d.Evaluate(tablesDesignA)
		want, wantErr := freshEvaluate(b, tablesDesignA)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Errorf("%s: error verdicts differ: edited designer %v, fresh %v", name, gotErr, wantErr)
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%s: edited designer and fresh designer disagree:\n%+v\n%+v", name, got, want)
		case gotErr == nil && mustMove[name] && reflect.DeepEqual(got, before):
			t.Errorf("%s: the edit does not change the evaluation; the check is vacuous", name)
		}
		leaf.SetFloat(old)
		if again, err := d.Evaluate(tablesDesignA); err != nil || !reflect.DeepEqual(again, before) {
			t.Fatalf("%s: restoring the field does not restore the evaluation (%v)", name, err)
		}
	}
}

// TestChainTablesIdealPassivesCopy swaps a designer's builder for an
// IdealPassives copy that shares the geometry cache, and back: each result
// must equal (==) a fresh designer's on that builder.
func TestChainTablesIdealPassivesCopy(t *testing.T) {
	b := NewBuilder(device.Golden())
	ideal := *b
	ideal.IdealPassives = true
	d := plainDesigner(b)
	for _, step := range []*Builder{b, &ideal, b, &ideal} {
		d.Builder = step
		for _, x := range []Design{tablesDesignA, tablesDesignB} {
			got, err := d.Evaluate(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshEvaluate(step, x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("IdealPassives=%v: designer and fresh designer disagree:\n%+v\n%+v", step.IdealPassives, got, want)
			}
		}
	}
}

// TestBuildLayoutMarksDesignSteps pins the layout inputDesignSteps and
// outputDesignSteps describe: across two designs and both IdealPassives
// settings, every unmarked step is the same element, and every marked step
// follows the design.
func TestBuildLayoutMarksDesignSteps(t *testing.T) {
	b := NewBuilder(device.Golden())
	ideal := *b
	ideal.IdealPassives = true
	var amps []*Amplifier
	for _, bb := range []*Builder{b, &ideal} {
		for _, x := range []Design{tablesDesignA, tablesDesignB} {
			amp, err := bb.Build(x)
			if err != nil {
				t.Fatal(err)
			}
			amps = append(amps, amp)
		}
	}
	for _, side := range []struct {
		name   string
		design []bool
		chain  func(*Amplifier) []any
	}{
		{"input", inputDesignSteps[:], func(a *Amplifier) []any { return elems(a.Input) }},
		{"output", outputDesignSteps[:], func(a *Amplifier) []any { return elems(a.Output) }},
	} {
		ref := side.chain(amps[0])
		if len(ref) != len(side.design) {
			t.Fatalf("%s chain has %d steps, layout marks %d", side.name, len(ref), len(side.design))
		}
		for _, amp := range amps[1:] {
			got := side.chain(amp)
			for i, byDesign := range side.design {
				if same := reflect.DeepEqual(got[i], ref[i]); same == byDesign && !(byDesign && amp.Design == amps[0].Design) {
					t.Errorf("%s step %d (%v): design-marked %v, but same element across builds is %v", side.name, i, got[i], byDesign, same)
				}
			}
		}
	}
}

func elems[T any](ch []T) []any {
	out := make([]any, len(ch))
	for i, e := range ch {
		out[i] = e
	}
	return out
}

// TestChainTablesBuiltOncePerDesigner evaluates many candidates on one
// designer and demands a single tabulation for the (builder, grid) pair;
// a spec edit retabulates once for the new grids.
func TestChainTablesBuiltOncePerDesigner(t *testing.T) {
	d := plainDesigner(NewBuilder(device.Golden()))
	lo, hi := DesignBounds()
	evaluateBox := func() {
		for k := 0; k < 16; k++ {
			x := make([]float64, len(lo))
			for i := range x {
				x[i] = lo[i] + (hi[i]-lo[i])*float64((k*(i+3))%17)/16
			}
			if _, err := d.Evaluate(DesignFromVector(x)); err != nil {
				t.Fatal(err)
			}
		}
	}
	evaluateBox()
	first := d.tables.Load()
	if first == nil || first.pts == nil || first.stab == nil {
		t.Fatal("Evaluate built no chain tables")
	}
	evaluateBox()
	if d.tables.Load() != first {
		t.Fatal("the chain tables were rebuilt for an unchanged builder and grid")
	}
	d.Spec.NPoints = 7
	evaluateBox()
	second := d.tables.Load()
	if second == first || len(second.pts.in[0]) != 7 {
		t.Fatal("a spec edit did not retabulate for the new grid")
	}
	evaluateBox()
	if d.tables.Load() != second {
		t.Fatal("the chain tables were rebuilt for an unchanged builder and grid")
	}
}

// TestTwoStageGraderMatchesGradeBand grades cascades with a grader (tables
// built once) and with BuildTwoStage plus GradeBand (every step computed),
// before and after a builder edit, and demands equal (==) grades.
func TestTwoStageGraderMatchesGradeBand(t *testing.T) {
	b := NewBuilder(device.Golden())
	spec := DefaultTwoStageSpec()
	pts, stab := spec.points(), spec.stabPoints()
	g := b.TwoStageGrader(pts, stab, 50)
	var ws1, ws2 BandWorkspace
	for _, edit := range []func(){func() {}, func() { b.GateDampR = 33 }} {
		edit()
		for i, p := range [][2]Design{{tablesDesignA, tablesDesignB}, {tablesDesignB, tablesDesignA}} {
			nf, gt, margin, pdc, err := g.Grade(&ws1, &ws2, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			ts, err := b.BuildTwoStage(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			wnf, wgt, wmargin, err := ts.GradeBand(&ws1, &ws2, pts, stab, 50)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(nf, gt, margin, pdc)
			if want := fmt.Sprint(wnf, wgt, wmargin, ts.PowerDissipation()); nf != wnf || gt != wgt || margin != wmargin || got != want {
				t.Errorf("pair %d: grader %s, GradeBand %s", i, got, want)
			}
		}
	}
}
