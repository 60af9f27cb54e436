package obs

import (
	"bytes"
	"math"
	"testing"

	"gnsslna/internal/jsonl"
)

// collect is a minimal recording observer.
type collect struct{ events []Event }

func (c *collect) Observe(e Event) { c.events = append(c.events, e) }

func TestNewTracerAtAllocatesAboveBase(t *testing.T) {
	const base = uint64(3) << 48
	tr := NewTracerAt(42, base)
	if got := tr.ID(); got != 42 {
		t.Fatalf("ID = %d, want 42", got)
	}
	if s := tr.NewSpan(); uint64(s) != base+1 {
		t.Fatalf("first span = %d, want %d", s, base+1)
	}
	if s := tr.NewSpan(); uint64(s) != base+2 {
		t.Fatalf("second span = %d, want %d", s, base+2)
	}
}

func TestAdoptSpanStampsDurableIdentity(t *testing.T) {
	sink := &collect{}
	tr := NewTracerAt(7, 1<<48)
	root := AdoptSpan(sink, tr, 1, 0)

	// Membership event: inherits the adopted span and parent.
	root.Observe(Event{Kind: KindSample, Scope: "job.backoff_ms", Value: 5})
	// Child-span record: explicit span, parented under the adopted span.
	root.Observe(Event{Kind: KindSpanEnd, Scope: "job.wait", Span: tr.NewSpan(), Value: 9})
	// A StartSpan child nests under the adopted root too.
	child, end := StartSpan(root, "job.attempt")
	child.Observe(Event{Kind: KindGeneration, Gen: 1})
	end(0)

	es := sink.events
	if len(es) != 5 {
		t.Fatalf("got %d events, want 5", len(es))
	}
	if es[0].Trace != 7 || es[0].Span != 1 || es[0].Parent != 0 {
		t.Errorf("membership event identity = (%d,%d,%d), want (7,1,0)", es[0].Trace, es[0].Span, es[0].Parent)
	}
	if want := SpanID(1<<48 + 1); es[1].Span != want || es[1].Parent != 1 {
		t.Errorf("wait span identity = (%d,%d), want (%d,1)", es[1].Span, es[1].Parent, want)
	}
	if want := SpanID(1<<48 + 2); es[2].Kind != KindSpanBegin || es[2].Span != want || es[2].Parent != 1 {
		t.Errorf("attempt begin = kind %d span %d parent %d, want begin %d 1", es[2].Kind, es[2].Span, es[2].Parent, want)
	}
	if es[3].Span != es[2].Span {
		t.Errorf("generation not attributed to the attempt span: %d vs %d", es[3].Span, es[2].Span)
	}
	if es[4].Kind != KindSpanEnd || es[4].Span != es[2].Span {
		t.Errorf("attempt end span = %d, want %d", es[4].Span, es[2].Span)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var empty Histogram
	if v := empty.Quantile(0.99); !math.IsNaN(v) {
		t.Errorf("empty histogram quantile = %g, want NaN", v)
	}

	var one Histogram
	one.Observe(37.5)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if v := one.Quantile(q); v != 37.5 {
			t.Errorf("single-observation Quantile(%g) = %g, want 37.5", q, v)
		}
	}

	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("quantiles out of order: p50=%g p99=%g", p50, p99)
	}
	// Log-bucket estimate: within one bucket factor (2x) of the exact rank.
	if p50 < 250 || p50 > 1000 {
		t.Errorf("p50 = %g, implausible for uniform 1..1000", p50)
	}
	if q := h.Quantile(2); q != h.Quantile(1) {
		t.Errorf("Quantile clamps q>1: got %g want %g", q, h.Quantile(1))
	}
}

func TestAppendEpoch(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.AppendEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := jsonl.Read[Record](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Event != EpochEvent {
		t.Fatalf("records = %+v, want one epoch record", recs)
	}
	if recs[0].Fields["unix_ms"] <= 0 {
		t.Errorf("epoch unix_ms = %g, want > 0", recs[0].Fields["unix_ms"])
	}
}
