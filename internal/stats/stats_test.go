package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunningExact(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if r.Mean() != 5 {
		t.Errorf("Mean = %g", r.Mean())
	}
	if r.StdDev() != 2 {
		t.Errorf("StdDev = %g", r.StdDev())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("extremes = %g, %g", r.Min(), r.Max())
	}
	if !strings.Contains(r.String(), "n=8") {
		t.Errorf("String = %q", r.String())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.StdDev() != 0 || r.N() != 0 {
		t.Error("empty accumulator not zero")
	}
	if r.SampleVar() != 0 || r.StdErr() != 0 || r.CI95() != 0 {
		t.Error("empty accumulator has a nonzero interval")
	}
}

// Sample moments: n-1 denominator, stderr = s/sqrt(n), normal 95%
// half-width 1.96*stderr; a single observation has no interval.
func TestRunningSampleMoments(t *testing.T) {
	var r Running
	r.Add(3)
	if r.SampleVar() != 0 || r.CI95() != 0 {
		t.Error("one observation should carry no spread")
	}
	for _, x := range []float64{5, 7} {
		r.Add(x)
	}
	if v := r.SampleVar(); v != 4 { // {3,5,7}: m2=8, n-1=2
		t.Errorf("SampleVar = %g, want 4", v)
	}
	wantSE := math.Sqrt(4.0 / 3.0)
	if se := r.StdErr(); math.Abs(se-wantSE) > 1e-12 {
		t.Errorf("StdErr = %g, want %g", se, wantSE)
	}
	if ci := r.CI95(); math.Abs(ci-1.96*wantSE) > 1e-12 {
		t.Errorf("CI95 = %g, want %g", ci, 1.96*wantSE)
	}
	// Relationship to the population variance: SampleVar = Var * n/(n-1).
	if got, want := r.SampleVar(), r.Var()*3/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("SampleVar %g inconsistent with Var %g", got, r.Var())
	}
}

// Welford must agree with the two-pass formula.
func TestRunningMatchesTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		xs := make([]float64, n)
		var r Running
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			r.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		v := 0.0
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n)
		return math.Abs(r.Mean()-mean) < 1e-9 && math.Abs(r.Var()-v) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %g", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("q.5 = %g", q)
	}
	if q := Quantile(xs, -1); q != 1 {
		t.Errorf("clamped low = %g", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %g", q)
	}
	// The input must not be mutated.
	if xs[0] != 5 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1, 2.5, 5, 9.9, -1, 10, 42} {
		h.Add(x)
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Counts[0] != 2 { // 0 and 1
		t.Errorf("bucket 0 = %d", h.Counts[0])
	}
	if h.Counts[4] != 1 { // 9.9
		t.Errorf("bucket 4 = %d", h.Counts[4])
	}
	out := h.Render(20)
	if !strings.Contains(out, "under: 1") || !strings.Contains(out, "over: 2") {
		t.Errorf("render missing out-of-range:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("render missing bars:\n%s", out)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 0, 5) },
		func() { NewHistogram(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramRenderDefaultWidth(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(0.2)
	if out := h.Render(0); !strings.Contains(out, "#") {
		t.Errorf("default width render:\n%s", out)
	}
}
