package chaostest_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"gnsslna/internal/optim"
	"gnsslna/internal/resilience"
	"gnsslna/internal/resilience/chaostest"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func box(dim int) (lo, hi []float64) {
	lo, hi = make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = -5, 5
	}
	return lo, hi
}

func TestInjectorSchedule(t *testing.T) {
	in := &chaostest.Injector{NaNEvery: 3, InfEvery: 5}
	f := in.Wrap(sphere)
	x := []float64{1, 2}
	for n := int64(1); n <= 15; n++ {
		v := f(x)
		switch {
		case n%3 == 0:
			if !math.IsNaN(v) {
				t.Errorf("call %d: want NaN, got %v", n, v)
			}
		case n%5 == 0:
			if !math.IsInf(v, 1) {
				t.Errorf("call %d: want +Inf, got %v", n, v)
			}
		default:
			if v != 5 {
				t.Errorf("call %d: want 5, got %v", n, v)
			}
		}
	}
	if in.Calls() != 15 {
		t.Errorf("calls = %d, want 15", in.Calls())
	}
	in.Reset()
	if in.Calls() != 0 {
		t.Error("Reset did not zero the counter")
	}
}

func TestSafeQuarantinesChaos(t *testing.T) {
	in := &chaostest.Injector{PanicEvery: 7, NaNEvery: 3}
	safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{Penalty: 1e6})
	obj := safe.Objective()
	for i := 0; i < 100; i++ {
		if v := obj([]float64{1, 1}); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("eval %d leaked a non-finite value: %v", i, v)
		}
	}
	if safe.Panics() == 0 {
		t.Error("no injected panic was recovered")
	}
	if safe.NonFinite() == 0 {
		t.Error("no injected NaN was quarantined")
	}
}

func TestBreakerTripsUnderSustainedFaults(t *testing.T) {
	in := &chaostest.Injector{NaNEvery: 1}
	ctrl := resilience.NewController(resilience.ControllerOptions{})
	safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{
		BreakerK: 10, Control: ctrl,
	})
	obj := safe.Objective()
	for i := 0; i < 10; i++ {
		obj([]float64{1})
	}
	st, ok := resilience.AsStopped(ctrl.Check())
	if !ok || st.Reason != resilience.StopBreaker {
		t.Fatalf("controller not tripped after 10 sustained faults: %v", ctrl.Check())
	}
	if safe.BreakerTrips() != 1 {
		t.Errorf("trips = %d, want 1", safe.BreakerTrips())
	}
}

func TestDeadlineStopsSlowEvals(t *testing.T) {
	in := &chaostest.Injector{SlowEvery: 1, SlowFor: 2 * time.Millisecond}
	ctrl := resilience.NewController(resilience.ControllerOptions{
		Deadline: time.Now().Add(25 * time.Millisecond),
	})
	lo, hi := box(3)
	start := time.Now()
	res, err := optim.DifferentialEvolution(in.Wrap(sphere), lo, hi, &optim.DEOptions{
		Pop: 20, Generations: 10000, Seed: 1, Control: ctrl,
	})
	st, ok := resilience.AsStopped(err)
	if !ok || st.Reason != resilience.StopDeadline {
		t.Fatalf("want deadline stop, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
	if len(res.X) == 0 {
		t.Error("no best-so-far point returned")
	}
}

func TestRestartPolicyHealsTransientChaos(t *testing.T) {
	// The first 40 evaluations all fault; the breaker (K=20) trips on the
	// first attempt, the restart policy resets it, and a later attempt
	// runs on the healed objective.
	in := &chaostest.Injector{FailFirst: 40}
	ctrl := resilience.NewController(resilience.ControllerOptions{})
	safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{
		BreakerK: 20, Control: ctrl,
	})
	lo, hi := box(2)
	policy := resilience.RestartPolicy{Seed: 3, MaxRestarts: 3, Control: ctrl}
	attempt, best, err := policy.Run(func(seed int64) (float64, error) {
		res, err := optim.DifferentialEvolution(safe.Objective(), lo, hi, &optim.DEOptions{
			Pop: 20, Generations: 30, Seed: seed, Control: ctrl,
		})
		return res.F, err
	})
	if err != nil {
		t.Fatalf("restart policy did not recover: %v", err)
	}
	if attempt == 0 {
		t.Error("recovery reported on attempt 0: breaker never tripped")
	}
	if best > 1e-3 {
		t.Errorf("healed run did not converge: best %g", best)
	}
	if safe.BreakerTrips() == 0 {
		t.Error("breaker never tripped")
	}
}

// TestParallelSolversSurviveChaos drives the population solvers with the
// evaluation fan-out enabled over a panicking, NaN-spewing objective behind
// the quarantine wrapper: every fault must be quarantined in whichever
// worker goroutine evaluates it, no panic may escape, no batch may be lost,
// and the run must terminate (no deadlock).
func TestParallelSolversSurviveChaos(t *testing.T) {
	lo, hi := box(3)
	const workers = 4
	solvers := []struct {
		name string
		run  func(obj func([]float64) float64) (optim.Result, error)
	}{
		{"de", func(obj func([]float64) float64) (optim.Result, error) {
			return optim.DifferentialEvolution(obj, lo, hi, &optim.DEOptions{
				Pop: 20, Generations: 30, Seed: 1, Workers: workers,
			})
		}},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			in := &chaostest.Injector{PanicEvery: 11, NaNEvery: 7}
			safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{Penalty: 1e6})
			res, err := s.run(safe.Objective())
			if err != nil {
				t.Fatalf("solver failed under parallel chaos: %v", err)
			}
			if len(res.X) == 0 || math.IsNaN(res.F) || math.IsInf(res.F, 0) {
				t.Fatalf("unusable result under parallel chaos: %+v", res)
			}
			if safe.Panics() == 0 && safe.NonFinite() == 0 {
				t.Error("injector never fired: parallel chaos sweep vacuous")
			}
		})
	}
}

// TestParallelPanicPropagatesUnwrapped pins the worker-pool contract for an
// objective with no quarantine wrapper: a panic in a worker is re-raised on
// the driving goroutine after the batch drains — never a deadlock, never a
// silently lost batch.
func TestParallelPanicPropagatesUnwrapped(t *testing.T) {
	lo, hi := box(2)
	in := &chaostest.Injector{PanicEvery: 13}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		_, _ = optim.DifferentialEvolution(in.Wrap(sphere), lo, hi, &optim.DEOptions{
			Pop: 20, Generations: 50, Seed: 1, Workers: 4,
		})
		done <- nil
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("injected panic vanished: neither propagated nor deadlocked")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel solver deadlocked on a panicking objective")
	}
}

// TestParallelDeadlineStopsStalledWorkers verifies the controller still
// stops a run whose evaluations stall inside worker goroutines.
func TestParallelDeadlineStopsStalledWorkers(t *testing.T) {
	in := &chaostest.Injector{SlowEvery: 1, SlowFor: 2 * time.Millisecond}
	ctrl := resilience.NewController(resilience.ControllerOptions{
		Deadline: time.Now().Add(25 * time.Millisecond),
	})
	lo, hi := box(3)
	start := time.Now()
	res, err := optim.DifferentialEvolution(in.Wrap(sphere), lo, hi, &optim.DEOptions{
		Pop: 20, Generations: 10000, Seed: 1, Control: ctrl, Workers: 4,
	})
	st, ok := resilience.AsStopped(err)
	if !ok || st.Reason != resilience.StopDeadline {
		t.Fatalf("want deadline stop, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
	if len(res.X) == 0 {
		t.Error("no best-so-far point returned")
	}
}

// TestAllSolversSurviveChaos sweeps every scalar solver over a panicking,
// NaN-spewing objective behind the quarantine wrapper: no panic may escape
// and every solver must return a usable point.
func TestAllSolversSurviveChaos(t *testing.T) {
	lo, hi := box(3)
	x0 := []float64{3, -2, 4}
	solvers := []struct {
		name string
		run  func(obj func([]float64) float64) (optim.Result, error)
	}{
		{"de", func(obj func([]float64) float64) (optim.Result, error) {
			return optim.DifferentialEvolution(obj, lo, hi, &optim.DEOptions{Pop: 20, Generations: 30, Seed: 1})
		}},
		{"nm", func(obj func([]float64) float64) (optim.Result, error) {
			return optim.NelderMead(obj, x0, &optim.NMOptions{MaxEvals: 600})
		}},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			in := &chaostest.Injector{PanicEvery: 11, NaNEvery: 7}
			safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{Penalty: 1e6})
			res, err := s.run(safe.Objective())
			if err != nil {
				t.Fatalf("solver failed under chaos: %v", err)
			}
			if len(res.X) == 0 || math.IsNaN(res.F) || math.IsInf(res.F, 0) {
				t.Fatalf("unusable result under chaos: %+v", res)
			}
			if safe.Panics() == 0 && safe.NonFinite() == 0 {
				t.Error("injector never fired: chaos sweep vacuous")
			}
		})
	}
}

// biObjective is a convex bi-objective problem: distance² to the origin and
// to the point (2, 0, …, 0).
func biObjective(x []float64) []float64 {
	var f1, f2 float64
	for i, v := range x {
		f1 += v * v
		d := v
		if i == 0 {
			d -= 2
		}
		f2 += d * d
	}
	return []float64{f1, f2}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TestVectorSolversSurviveChaos sweeps every multi-objective solver, serial
// and with the evaluation fan-out on, over a panicking, NaN-spewing vector
// objective behind the vector quarantine wrapper: no panic may escape, the
// returned design and objective values must be finite, and the injector
// must have fired.
func TestVectorSolversSurviveChaos(t *testing.T) {
	lo, hi := box(3)
	goals := []optim.Goal{{Name: "f1", Target: 1, Weight: 1}, {Name: "f2", Target: 1, Weight: 1}}
	attain := func(workers int) *optim.AttainOptions {
		return &optim.AttainOptions{Seed: 1, GlobalEvals: 600, PolishEvals: 200, Workers: workers}
	}
	solvers := []struct {
		name string
		run  func(obj optim.VectorObjective, workers int) (xs, fs [][]float64, err error)
	}{
		{"nsga2", func(obj optim.VectorObjective, workers int) ([][]float64, [][]float64, error) {
			r, err := optim.NSGA2(obj, lo, hi, &optim.NSGA2Options{Pop: 20, Generations: 15, Seed: 1, Workers: workers})
			return r.X, r.F, err
		}},
		{"standard", func(obj optim.VectorObjective, workers int) ([][]float64, [][]float64, error) {
			r, err := optim.GoalAttainStandard(obj, goals, lo, hi, attain(workers))
			return [][]float64{r.X}, [][]float64{r.F}, err
		}},
		{"improved", func(obj optim.VectorObjective, workers int) ([][]float64, [][]float64, error) {
			r, err := optim.GoalAttainImproved(obj, goals, lo, hi, attain(workers))
			return [][]float64{r.X}, [][]float64{r.F}, err
		}},
		{"wsum", func(obj optim.VectorObjective, workers int) ([][]float64, [][]float64, error) {
			r, err := optim.WeightedSum(obj, []float64{0.5, 0.5}, lo, hi, attain(workers))
			return [][]float64{r.X}, [][]float64{r.F}, err
		}},
	}
	for _, s := range solvers {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", s.name, workers), func(t *testing.T) {
				in := &chaostest.Injector{PanicEvery: 11, NaNEvery: 7}
				safe := resilience.NewSafeVector(in.WrapVector(biObjective, 2), 2, &resilience.SafeOptions{Penalty: 1e6})
				xs, fs, err := s.run(safe.Objective(), workers)
				if err != nil {
					t.Fatalf("solver failed under chaos: %v", err)
				}
				if len(xs) == 0 || len(xs) != len(fs) {
					t.Fatalf("no usable result under chaos: %d designs, %d objective vectors", len(xs), len(fs))
				}
				for i := range xs {
					if len(xs[i]) != len(lo) || len(fs[i]) != 2 || !finite(xs[i]...) || !finite(fs[i]...) {
						t.Fatalf("result %d unusable under chaos: x=%v f=%v", i, xs[i], fs[i])
					}
				}
				if safe.Panics() == 0 || safe.NonFinite() == 0 {
					t.Errorf("injector did not fire both faults (panics %d, non-finite %d): chaos sweep vacuous",
						safe.Panics(), safe.NonFinite())
				}
			})
		}
	}
}

// TestLevenbergMarquardtSurvivesChaos runs the least-squares fitter over a
// panicking, NaN-spewing residual behind the vector quarantine wrapper: the
// numerical Jacobian sees the penalty vectors, yet no panic may escape and
// the fit must return finite parameters and cost.
func TestLevenbergMarquardtSurvivesChaos(t *testing.T) {
	target := []float64{1, -2, 0.5}
	residual := func(x []float64) []float64 {
		r := make([]float64, len(x))
		for i := range x {
			r[i] = x[i] - target[i]
		}
		return r
	}
	in := &chaostest.Injector{PanicEvery: 11, NaNEvery: 7}
	safe := resilience.NewSafeVector(in.WrapVector(residual, 3), 3, &resilience.SafeOptions{Penalty: 1e6})
	res, err := optim.LevenbergMarquardt(safe.Objective(), []float64{3, 3, 3}, &optim.LMOptions{MaxIter: 50})
	if err != nil {
		t.Fatalf("LM failed under chaos: %v", err)
	}
	if len(res.X) != len(target) || !finite(res.X...) || !finite(res.Cost) {
		t.Fatalf("unusable LM result under chaos: %+v", res)
	}
	if safe.Panics() == 0 || safe.NonFinite() == 0 {
		t.Errorf("injector did not fire both faults (panics %d, non-finite %d): chaos sweep vacuous",
			safe.Panics(), safe.NonFinite())
	}
}
