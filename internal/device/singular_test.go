package device

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gnsslna/internal/twoport"
)

// TestSingularMatchesMat2Inv pins the kernel's singular predicate, with its
// square-root-free fast path, to the verdict of twoport.Mat2.Inv on random
// matrices whose determinant is steered to within a few decades of the
// 1e-12*r1*r2 threshold, rows of unequal scale included.
func TestSingularMatchesMat2Inv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randC := func() complex128 {
		return cmplx.Rect(math.Pow(10, 6*rng.Float64()-3), 2*math.Pi*rng.Float64())
	}
	seen := [2]int{}
	for k := 0; k < 200000; k++ {
		a, b, c := randC(), randC(), randC()
		// d = (bc + delta)/a puts det = ad - bc near delta, scaled around
		// the threshold for the rows' magnitudes.
		target := 1e-12 * (cmplx.Abs(a) + cmplx.Abs(b)) * (cmplx.Abs(b*c/a) + cmplx.Abs(c))
		delta := cmplx.Rect(target*math.Pow(10, 4*rng.Float64()-2), 2*math.Pi*rng.Float64())
		d := (b*c + delta) / a
		det := a*d - b*c
		_, err := twoport.Mat2{{a, b}, {c, d}}.Inv()
		got := singular(det, a, b, c, d)
		if got != (err != nil) {
			t.Fatalf("a=%v b=%v c=%v d=%v: singular=%v, Mat2.Inv error %v", a, b, c, d, got, err)
		}
		if got {
			seen[1]++
		} else {
			seen[0]++
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("verdicts not both exercised: %v", seen)
	}
}
