package core

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gnsslna/internal/device"
)

// negZero is -0.0 spelled so the compiler cannot fold it to +0.0.
var negZero = math.Copysign(0, -1)

// TestKeyHashNegativeZeroCanonical pins the hashing contract the shard maps
// rely on: memoKey comparison uses Go's ==, which treats -0.0 and +0.0 as
// equal, so keyHash must agree for every design field. Before the
// canonicalization this failed — math.Float64bits(-0.0) differs from
// math.Float64bits(0) — splitting equal keys across shards.
func TestKeyHashNegativeZeroCanonical(t *testing.T) {
	fields := []func(*Design, float64){
		func(d *Design, v float64) { d.Vgs = v },
		func(d *Design, v float64) { d.Vds = v },
		func(d *Design, v float64) { d.LIn = v },
		func(d *Design, v float64) { d.LDegen = v },
		func(d *Design, v float64) { d.LOut = v },
		func(d *Design, v float64) { d.COut = v },
	}
	base := Design{Vgs: 0.4, Vds: 2, LIn: 5e-9, LDegen: 0.5e-9, LOut: 3e-9, COut: 1e-12}
	for i, set := range fields {
		pos, neg := base, base
		set(&pos, 0)
		set(&neg, negZero)
		if pos != neg {
			t.Fatalf("field %d: fixture broken, designs compare unequal", i)
		}
		kp := memoKey{ctx: 0x9e3779b97f4a7c15, design: pos}
		kn := memoKey{ctx: 0x9e3779b97f4a7c15, design: neg}
		if keyHash(kp) != keyHash(kn) {
			t.Errorf("field %d: keyHash splits +0.0/-0.0 twins: %#x vs %#x",
				i, keyHash(kp), keyHash(kn))
		}
	}
}

// TestEvalMemoNegativeZeroSharesEntry is the behavioral regression: a
// design with a -0.0 field (reachable when an optimizer bound touches zero)
// must share one shard entry with its +0.0-equal twin — stored once, hit by
// both spellings.
func TestEvalMemoNegativeZeroSharesEntry(t *testing.T) {
	m := NewEvalMemo(64)
	pos := Design{Vgs: 0.4, Vds: 2, LIn: 0, LDegen: 0.5e-9, LOut: 3e-9, COut: 1e-12}
	neg := pos
	neg.LIn = negZero
	ctx := uint64(12345)
	kp := memoKey{ctx: ctx, design: pos}
	kn := memoKey{ctx: ctx, design: neg}

	// Two stores pass the doorkeeper (admitted on the second sighting).
	ev := Evaluation{Design: pos, WorstNFdB: 0.5}
	m.store(kp, ev)
	m.store(kp, ev)
	if got, ok := m.lookup(kp); !ok || got.WorstNFdB != 0.5 {
		t.Fatalf("+0.0 key not admitted: ok=%v", ok)
	}
	if _, ok := m.lookup(kn); !ok {
		t.Fatalf("-0.0 twin misses the entry its +0.0 spelling stored")
	}
	// Storing the -0.0 spelling must not duplicate the entry.
	m.store(kn, ev)
	m.store(kn, ev)
	if st := m.Stats(); st.Size != 1 {
		t.Fatalf("memo holds %d entries for one logical key, want 1", st.Size)
	}
}

// TestSweepGridsPublicCopyDoesNotAlias pins the Designer grid contract: the
// exported SweepGrids returns caller-owned copies, so mutating them (as a
// campaign cell goroutine legitimately might) cannot corrupt the memoized
// grids that concurrent Evaluate calls read. Run under -race this also
// proves the internal path stays read-only while copies are scribbled on.
func TestSweepGridsPublicCopyDoesNotAlias(t *testing.T) {
	d := NewDesigner(NewBuilder(device.Golden()))
	d.Spec.NPoints = 5
	d.Memo = nil // exercise the full evaluation path every time

	ref, err := d.Evaluate(referenceDesign)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				pts, stab := d.SweepGrids()
				for j := range pts {
					pts[j] = -1 // scribble on the copy
				}
				for j := range stab {
					stab[j] = -1
				}
				ev, err := d.Evaluate(referenceDesign)
				if err != nil {
					t.Errorf("Evaluate: %v", err)
					return
				}
				if ev.WorstNFdB != ref.WorstNFdB || ev.MinGTdB != ref.MinGTdB ||
					ev.StabMargin != ref.StabMargin {
					t.Errorf("evaluation drifted after SweepGrids mutation: %+v vs %+v", ev, ref)
					return
				}
			}
		}()
	}
	wg.Wait()

	pts, stab := d.SweepGrids()
	if len(pts) != 5 || pts[0] != d.Spec.FLow || pts[len(pts)-1] != d.Spec.FHigh {
		t.Fatalf("band grid corrupted: %v", pts)
	}
	for _, f := range stab {
		if f <= 0 {
			t.Fatalf("stability grid corrupted: %v", stab)
		}
	}
}

// TestEvalMemoSeesInPlaceDeviceMutation is the stale-answer regression: the
// context snapshot once keyed the device by pointer, so mutating the
// builder's device in place after the design was memoized (extraction
// mutates the devices it fits) returned the old device's evaluation. The
// memoized designer must agree with a memo-free evaluation of the mutated
// device.
func TestEvalMemoSeesInPlaceDeviceMutation(t *testing.T) {
	dev := device.Golden()
	d := NewDesigner(NewBuilder(dev))
	d.Memo = NewEvalMemo(64)
	// Three passes: missed, admitted by the doorkeeper, then a hit.
	for i := 0; i < 3; i++ {
		if _, err := d.Evaluate(referenceDesign); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Memo.Stats(); st.Hits != 1 {
		t.Fatalf("fixture: memo hits = %d after three passes, want 1", st.Hits)
	}
	dev.Ri *= 4
	dev.Noise.Td0 *= 3
	got, err := d.Evaluate(referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &Designer{Builder: NewBuilder(dev), Spec: d.Spec, Z0: d.Z0}
	want, err := fresh.Evaluate(referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	if got.WorstNFdB != want.WorstNFdB || got.MinGTdB != want.MinGTdB || got.StabMargin != want.StabMargin {
		t.Fatalf("memo returned a stale evaluation after in-place device mutation: worst NF %.4f dB, fresh %.4f dB",
			got.WorstNFdB, want.WorstNFdB)
	}
}

// renamedDC is a DC model whose parameters equal the wrapped model's but
// whose kind differs: only the digest's model name can tell them apart.
type renamedDC struct{ *device.Angelov }

func (renamedDC) Name() string { return "renamed-Angelov" }

// TestMemoKeyCoversEveryField walks every field the evaluation depends on — Spec, the
// substrate, the Builder scalars, the device and its capacitance,
// extrinsic and noise models, the DC model's kind and parameters — with
// reflect, perturbs each one and demands the memo context digest change. A
// field added to any of these types without being hashed fails here.
func TestMemoKeyCoversEveryField(t *testing.T) {
	d := NewDesigner(NewBuilder(device.Golden()))
	b := d.Builder
	base, ok := d.ctxHash()
	if !ok {
		t.Fatal("no context digest for a complete designer")
	}
	// changes perturbs one leaf, demands a new digest, and restores it.
	changes := func(label string, leaf reflect.Value) {
		t.Helper()
		old := reflect.New(leaf.Type()).Elem()
		old.Set(leaf)
		switch leaf.Kind() {
		case reflect.Float64:
			leaf.SetFloat(leaf.Float()*1.5 + 0.125)
		case reflect.Int:
			leaf.SetInt(leaf.Int() + 1)
		case reflect.Bool:
			leaf.SetBool(!leaf.Bool())
		case reflect.String:
			leaf.SetString(leaf.String() + "'")
		default:
			t.Fatalf("%s: field kind %s has no perturbation; hash it and extend this test", label, leaf.Kind())
		}
		if h, _ := d.ctxHash(); h == base {
			t.Errorf("%s: perturbing it leaves the memo context digest unchanged", label)
		}
		leaf.Set(old)
		if h, _ := d.ctxHash(); h != base {
			t.Fatalf("%s: restoring it does not restore the digest", label)
		}
	}
	// walk visits every leaf of a struct, skipping the named fields (which
	// the caller covers separately).
	var walk func(prefix string, v reflect.Value, skip ...string)
	walk = func(prefix string, v reflect.Value, skip ...string) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if slices.Contains(skip, f.Name) {
				continue
			}
			label := prefix + "." + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(label, v.Field(i))
				continue
			}
			changes(label, v.Field(i))
		}
	}
	changes("Designer.Z0", reflect.ValueOf(&d.Z0).Elem())
	walk("Spec", reflect.ValueOf(&d.Spec).Elem())
	// geom is the builder's substrate-derived cache, not an input.
	walk("Builder", reflect.ValueOf(b).Elem(), "Dev", "geom")
	walk("PHEMT", reflect.ValueOf(b.Dev).Elem(), "DC")

	orig := b.Dev.DC
	params := orig.Params()
	for i, name := range orig.ParamNames() {
		fresh := reflect.New(reflect.TypeOf(orig).Elem())
		fresh.Elem().Set(reflect.ValueOf(orig).Elem())
		m := fresh.Interface().(device.DCModel)
		p := slices.Clone(params)
		p[i] = p[i]*1.5 + 0.125
		if err := m.SetParams(p); err != nil {
			t.Fatalf("DC %s: %v", name, err)
		}
		b.Dev.DC = m
		if h, _ := d.ctxHash(); h == base {
			t.Errorf("DC parameter %s: perturbing it leaves the digest unchanged", name)
		}
	}
	b.Dev.DC = renamedDC{orig.(*device.Angelov)}
	if h, _ := d.ctxHash(); h == base {
		t.Error("DC model kind: a different model with equal parameters leaves the digest unchanged")
	}
	b.Dev.DC = orig
	if h, _ := d.ctxHash(); h != base {
		t.Fatal("restoring the DC model does not restore the digest")
	}
}
