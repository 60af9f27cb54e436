package optim

import (
	"bytes"
	"context"
	"runtime/pprof"
	"sync"
	"testing"

	"gnsslna/internal/jsonl"
	"gnsslna/internal/obs"
)

// collectObserver is a concurrency-safe event recorder; pool workers emit
// worker spans from their own goroutines.
type collectObserver struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collectObserver) Observe(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// TestDETraceStructure runs a parallel DE under a traced observer and checks
// the causal shape the replay layer depends on: one run span parented under
// the root, per-generation spans parented under the run, and worker spans
// parented under their generation with 1-based worker ordinals.
func TestDETraceStructure(t *testing.T) {
	sink := &collectObserver{}
	tr := obs.NewTracerID(5)
	root := obs.NewTraced(sink, tr)

	res, err := DifferentialEvolution(sphere, []float64{-2, -2, -2}, []float64{2, 2, 2}, &DEOptions{
		Pop: 20, Generations: 10, Seed: 1, Workers: 2, Observer: root,
	})
	if err != nil {
		t.Fatal(err)
	}

	var done *obs.Event
	genSpans := map[obs.SpanID]bool{}
	var workers []obs.Event
	for _, e := range sink.events {
		if e.Trace != 5 {
			t.Fatalf("event trace = %d, want 5: %+v", e.Trace, e)
		}
		switch {
		case e.Kind == obs.KindDone:
			ev := e
			done = &ev
		case e.Kind == obs.KindGeneration:
			if e.Span == 0 {
				t.Fatalf("generation event without span: %+v", e)
			}
			genSpans[e.Span] = true
		case e.Kind == obs.KindSpanEnd && e.Worker > 0:
			workers = append(workers, e)
		}
	}

	if done == nil {
		t.Fatal("no done event")
	}
	if done.Span == 0 || done.Parent != root.Span() {
		t.Fatalf("run span = %d parent %d, want child of root %d", done.Span, done.Parent, root.Span())
	}
	if done.Best != res.F {
		t.Errorf("done best = %g, want solver result %g", done.Best, res.F)
	}
	if len(genSpans) == 0 {
		t.Fatal("no generation spans")
	}
	for _, e := range sink.events {
		if e.Kind == obs.KindGeneration && e.Parent != done.Span {
			t.Fatalf("generation span %d parented under %d, want run span %d", e.Span, e.Parent, done.Span)
		}
	}
	if len(workers) == 0 {
		t.Fatal("no worker spans from a 2-worker pool")
	}
	for _, e := range workers {
		if e.Scope != "optim.de.worker" {
			t.Errorf("worker span scope = %q", e.Scope)
		}
		if e.Worker < 1 || e.Worker > 2 {
			t.Errorf("worker ordinal = %d, want 1..2", e.Worker)
		}
		// The initial-population batch evaluates before the first generation
		// span opens, so its worker spans parent under the run span itself;
		// every later batch parents under its generation.
		if !genSpans[e.Parent] && e.Parent != done.Span {
			t.Errorf("worker span %d parented under %d, want a generation or the run span", e.Span, e.Parent)
		}
		if e.Evals <= 0 {
			t.Errorf("worker span claimed %d evals", e.Evals)
		}
	}

	// Tracing must not perturb the trajectory: the traced parallel run and a
	// bare serial run land on the identical result.
	plain, err := DifferentialEvolution(sphere, []float64{-2, -2, -2}, []float64{2, 2, 2}, &DEOptions{
		Pop: 20, Generations: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.F != res.F || plain.Evals != res.Evals {
		t.Errorf("traced parallel run diverged: F %g vs %g, evals %d vs %d",
			res.F, plain.F, res.Evals, plain.Evals)
	}
}

// TestConcurrentHubObserveFromPool drives a multi-worker traced run into a
// real Hub with an attached journal; under -race this proves the whole
// emission path — pool workers through Traced into registry and journal —
// is safe for concurrent emitters.
func TestConcurrentHubObserveFromPool(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	hub := obs.NewHub(nil, j)
	tr := obs.NewTracerID(11)
	tr.SetOutliers(obs.NewOutlierDetector())
	root := obs.NewTraced(hub, tr)

	if _, err := DifferentialEvolution(sphere, []float64{-2, -2, -2}, []float64{2, 2, 2}, &DEOptions{
		Pop: 24, Generations: 8, Seed: 3, Workers: 4, Observer: root,
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := jsonl.Read[obs.Record](&buf)
	if err != nil {
		t.Fatal(err)
	}
	var gens, workerSpans int
	for _, r := range recs {
		switch r.Event {
		case "generation":
			gens++
		case "span-end":
			if r.Worker > 0 {
				workerSpans++
			}
		}
	}
	if gens == 0 || workerSpans == 0 {
		t.Fatalf("journal has %d generation and %d worker-span records", gens, workerSpans)
	}
	if hub.Registry().Snapshot().Counters["optim.de.evals"] == 0 {
		t.Error("hub registry missed the eval counter")
	}
}

// TestPoolWorkerProfLabels checks the pprof attribution inside pool workers:
// the phase/solver labels from the solver wrapper compose with the per-worker
// label on the worker goroutine.
func TestPoolWorkerProfLabels(t *testing.T) {
	checked := false
	obs.ProfDo("optim", "de", func(ctx context.Context) {
		wctx := obs.WorkerCtx(ctx, 1)
		labels := map[string]string{}
		pprof.ForLabels(wctx, func(k, v string) bool {
			labels[k] = v
			return true
		})
		for k, want := range map[string]string{"phase": "optim", "solver": "de", "worker": "1"} {
			if labels[k] != want {
				t.Errorf("worker ctx label %s = %q, want %q", k, labels[k], want)
			}
		}
		checked = true
	})
	if !checked {
		t.Fatal("ProfDo body did not run")
	}
}

// TestOutlierFlagging forces one pathological candidate through a traced
// batch and checks the flagged sample reaches the observer with the
// offending index.
func TestOutlierFlagging(t *testing.T) {
	sink := &collectObserver{}
	tr := obs.NewTracerID(13)
	det := obs.NewOutlierDetector()
	det.Warmup = 8
	tr.SetOutliers(det)
	root := obs.NewTraced(sink, tr)

	em := newEmitter(root, "", scopeDE)
	em.beginGen()
	bt := em.batch()
	if bt == nil {
		t.Fatal("traced emitter produced no batch trace")
	}
	for i := 0; i < 50; i++ {
		bt.observeEval(i, 1.0)
	}
	bt.observeEval(7, 5000)

	var flagged []obs.Event
	for _, e := range sink.events {
		if e.Kind == obs.KindSample && e.Scope == "optim.de.outlier" {
			flagged = append(flagged, e)
		}
	}
	if len(flagged) != 1 {
		t.Fatalf("flagged %d outliers, want exactly 1", len(flagged))
	}
	if flagged[0].Gen != 7 || flagged[0].Value != 5000 {
		t.Errorf("outlier = candidate %d at %gms, want 7/5000", flagged[0].Gen, flagged[0].Value)
	}
	if flagged[0].Trace != 13 || flagged[0].Span == 0 {
		t.Errorf("outlier event carries no trace identity: %+v", flagged[0])
	}
}
