package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gnsslna/internal/jsonl"
)

// TestRegistryConcurrent hammers one registry from many goroutines; run
// under -race this proves the counters, gauges and histograms are safe for
// the parallel emitters the pipelines use.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("evals").Add(2)
				r.Gauge("best").Set(float64(w*perWorker + i))
				r.Histogram("ms").Observe(float64(i%17) + 0.5)
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	if got, want := s.Counters["evals"], int64(2*workers*perWorker); got != want {
		t.Errorf("counter evals = %d, want %d", got, want)
	}
	h := s.Histograms["ms"]
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	if h.Min != 0.5 || h.Max != 16.5 {
		t.Errorf("histogram min/max = %g/%g, want 0.5/16.5", h.Min, h.Max)
	}
	if h.Mean <= h.Min || h.Mean >= h.Max {
		t.Errorf("histogram mean %g outside (%g, %g)", h.Mean, h.Min, h.Max)
	}
	if h.P50 < h.Min || h.P50 > h.Max || h.P90 < h.P50 {
		t.Errorf("quantiles out of order: p50=%g p90=%g min=%g max=%g", h.P50, h.P90, h.Min, h.Max)
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN())
	h.Observe(3)
	if s := h.Snapshot(); s.Count != 1 || s.Min != 3 || s.Max != 3 {
		t.Errorf("snapshot after NaN = %+v, want count 1 min/max 3", s)
	}
}

// TestRegistryString checks the expvar.Var rendering is valid JSON.
func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.evals").Add(7)
	r.Gauge("a.best").Set(1.25)
	r.Histogram("a.ms").Observe(2)
	var s Snapshot
	if err := json.Unmarshal([]byte(r.String()), &s); err != nil {
		t.Fatalf("String() is not valid JSON: %v", err)
	}
	if s.Counters["a.evals"] != 7 || s.Gauges["a.best"] != 1.25 {
		t.Errorf("round-tripped snapshot = %+v", s)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("optim.de.evals").Add(100)
	r.Gauge("optim.de.best").Set(0.5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counter optim.de.evals", "gauge   optim.de.best", "100", "0.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// TestJournalRoundTrip writes a journal (concurrently, for the race
// detector), reads it back, and verifies sequence numbering and content
// survive the trip.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := j.Append(Record{
					Event: "generation",
					Scope: "optim.test",
					Gen:   i,
					Evals: int64(10 * (i + 1)),
					Best:  1.0 / float64(i+1),
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Append(Record{Event: "done", Scope: "optim.test", Evals: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := jsonl.ReadFile[Record](path)
	if err != nil {
		t.Fatal(err)
	}
	if want := workers*perWorker + 1; len(recs) != want {
		t.Fatalf("read %d records, want %d", len(recs), want)
	}
	for i, rec := range recs {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d, want strictly increasing from 1", i, rec.Seq)
		}
		if rec.TMs < 0 {
			t.Fatalf("record %d has negative t_ms %g", i, rec.TMs)
		}
	}
	last := recs[len(recs)-1]
	if last.Event != "done" || last.Evals != 1000 {
		t.Errorf("last record = %+v, want the done record", last)
	}
}

// TestHubRouting drives one of each event kind through a hub and checks the
// metric naming convention and the journal mirror.
func TestHubRouting(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	h := NewHub(nil, j)

	h.Observe(Event{Kind: KindGeneration, Scope: "optim.de", Gen: 3, Evals: 120, Best: 0.25})
	h.Observe(Event{Kind: KindDone, Scope: "optim.de", Evals: 400, Best: 0.125, Value: 12})
	_, end := StartSpan(h, "extract.step1")
	end(42)
	h.Observe(Event{Kind: KindSample, Scope: "probe", Value: 7})

	s := h.Registry().Snapshot()
	if got := s.Gauges["optim.de.gen"]; got != 3 {
		t.Errorf("optim.de.gen = %g, want 3", got)
	}
	if got := s.Gauges["optim.de.best"]; got != 0.125 {
		t.Errorf("optim.de.best = %g, want 0.125 (done overwrites)", got)
	}
	if got := s.Counters["optim.de.evals"]; got != 400 {
		t.Errorf("optim.de.evals = %d, want 400", got)
	}
	if got := s.Counters["optim.de.runs"]; got != 1 {
		t.Errorf("optim.de.runs = %d, want 1", got)
	}
	if got := s.Counters["extract.step1.evals"]; got != 42 {
		t.Errorf("extract.step1.evals = %d, want 42", got)
	}
	if got := s.Counters["extract.step1.count"]; got != 1 {
		t.Errorf("extract.step1.count = %d, want 1", got)
	}
	if got := s.Histograms["probe"].Count; got != 1 {
		t.Errorf("probe histogram count = %d, want 1", got)
	}

	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := jsonl.Read[Record](&buf)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	for _, r := range recs {
		events = append(events, r.Event)
	}
	want := []string{"generation", "done", "span-begin", "span-end", "sample"}
	if len(events) != len(want) {
		t.Fatalf("journal events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("journal events = %v, want %v", events, want)
		}
	}
}

// TestTally checks the eval accounting forwards events and only counts
// KindDone totals.
func TestTally(t *testing.T) {
	var forwarded int
	tally := NewTally(Func(func(Event) { forwarded++ }))
	tally.Observe(Event{Kind: KindGeneration, Evals: 50})
	tally.Observe(Event{Kind: KindSpanEnd, Evals: 50})
	tally.Observe(Event{Kind: KindDone, Evals: 100})
	tally.Observe(Event{Kind: KindDone, Evals: 25})
	if got := tally.Evals(); got != 125 {
		t.Errorf("tally evals = %d, want 125 (done events only)", got)
	}
	if forwarded != 4 {
		t.Errorf("forwarded %d events, want 4", forwarded)
	}
}

func TestMulti(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should collapse to nil")
	}
	var a, b int
	oa := Func(func(Event) { a++ })
	if got := Multi(nil, oa); got == nil {
		t.Error("Multi with one survivor should collapse to it")
	} else {
		got.Observe(Event{})
		if a != 1 {
			t.Error("collapsed Multi did not forward")
		}
	}
	m := Multi(oa, Func(func(Event) { b++ }))
	m.Observe(Event{Kind: KindSample})
	if a != 2 || b != 1 {
		t.Errorf("fan-out reached a=%d b=%d, want 2/1", a, b)
	}
}

// TestNopZeroAlloc proves an enabled-but-discarding observer costs no
// allocations per event — the property that lets instrumentation stay in
// hot loops.
func TestNopZeroAlloc(t *testing.T) {
	o := OrNop(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		o.Observe(Event{Kind: KindGeneration, Scope: "optim.de", Gen: 1, Evals: 10, Best: 0.5})
	})
	if allocs != 0 {
		t.Errorf("Nop observer allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		_, end := StartSpan(nil, "x")
		end(1)
	})
	if allocs != 0 {
		t.Errorf("nil-observer span allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkNopObserve(b *testing.B) {
	b.ReportAllocs()
	o := Nop
	for i := 0; i < b.N; i++ {
		o.Observe(Event{Kind: KindGeneration, Scope: "optim.de", Gen: i, Evals: int64(i), Best: 1})
	}
}

func BenchmarkHubGeneration(b *testing.B) {
	b.ReportAllocs()
	h := NewHub(nil, nil)
	for i := 0; i < b.N; i++ {
		h.Observe(Event{Kind: KindGeneration, Scope: "optim.de", Gen: i, Evals: int64(i), Best: 1})
	}
}
