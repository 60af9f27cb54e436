package mna

import (
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

// sparamsTestCircuit builds a representative amplifier-shaped netlist
// hitting every element kind: resistors, reactive two-nodes, a delay-free
// and a delayed VCCS, and a transmission line.
func sparamsTestCircuit() *Circuit {
	c := New()
	c.AddR("in", "g", 5)
	c.AddC("g", "0", 0.4e-12)
	c.AddC("g", "d", 0.05e-12)
	c.AddVCCS("g", "0", "d", "0", 0.08, 1.5e-12)
	c.AddVCCS("d", "0", "0", "d", 1e-4, 0) // output conductance
	c.AddR("d", "out", 3)
	c.AddL("out", "0", 8e-9)
	zc := func(float64) complex128 { return complex(50, 0) }
	gamma := func(f float64) complex128 { return complex(0.1, 2*3.141592653589793*f/3e8) }
	c.AddLine("out", "p2", zc, gamma, 2e-3)
	return c
}

func sparamsGrid() []float64 { return mathx.Logspace(100e6, 10e9, 17) }

// sparams runs SParams2 and returns the raw scattering matrices.
func sparams(t *testing.T, c *Circuit, freqs []float64) []twoport.Mat2 {
	t.Helper()
	net, err := c.SParams2(freqs, "in", "p2", 50)
	if err != nil {
		t.Fatal(err)
	}
	return net.S
}

// TestSParamsBandMatchesFresh demands that one grid pass over a reused
// circuit — scratch matrix and factorization reused across points — equal
// (==) single-point solves on fresh circuits.
func TestSParamsBandMatchesFresh(t *testing.T) {
	grid := sparamsGrid()
	band := sparams(t, sparamsTestCircuit(), grid)
	for i, f := range grid {
		one := sparams(t, sparamsTestCircuit(), []float64{f})
		if band[i] != one[0] {
			t.Fatalf("at %g Hz: reused-circuit S %v != fresh S %v", f, band[i], one[0])
		}
	}
}

// TestSParams2SeesAddedElements adds an element (and a node) after a grid
// pass and demands the next pass see it: the result must equal a fresh
// circuit built with the full netlist.
func TestSParams2SeesAddedElements(t *testing.T) {
	grid := sparamsGrid()
	c := sparamsTestCircuit()
	before := sparams(t, c, grid)
	c.AddR("p2", "x", 200)
	c.AddC("x", "0", 1e-12)
	after := sparams(t, c, grid)
	fresh := sparamsTestCircuit()
	fresh.AddR("p2", "x", 200)
	fresh.AddC("x", "0", 1e-12)
	want := sparams(t, fresh, grid)
	changed := false
	for i := range grid {
		if after[i] != want[i] {
			t.Fatalf("point %d: incremental circuit %v != fresh %v", i, after[i], want[i])
		}
		if after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("added shunt branch left every S-parameter bit-identical")
	}
}

// TestSParamsBandErrors covers the port contracts.
func TestSParamsBandErrors(t *testing.T) {
	c := sparamsTestCircuit()
	if _, err := c.SParams2([]float64{1e9}, "nosuch", "p2", 50); err == nil {
		t.Error("unknown input port accepted")
	}
	if _, err := c.SParams2([]float64{1e9}, "in", "nosuch", 50); err == nil {
		t.Error("unknown output port accepted")
	}
}
