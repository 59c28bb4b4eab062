// Package stats provides the small statistics toolkit the analysis
// layer builds on: numerically stable running moments (Welford),
// quantiles, and fixed-width histograms for per-node distributions.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates count, mean and variance in one pass using
// Welford's algorithm; numerically stable for long sweeps. The zero
// value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add accumulates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (0 for no observations).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the population variance.
func (r *Running) Var() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Var()) }

// SampleVar returns the unbiased (n-1 denominator) sample variance,
// the estimator Monte Carlo replications call for; 0 for fewer than
// two observations.
func (r *Running) SampleVar() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdErr returns the standard error of the mean,
// sqrt(SampleVar / n); 0 for fewer than two observations.
func (r *Running) StdErr() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.SampleVar() / float64(r.n))
}

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval for the mean, 1.96 * StdErr. The normal
// approximation is what replication counts of ~30+ warrant; callers
// running very few replications should read it as a rough error bar,
// not a calibrated interval.
func (r *Running) CI95() float64 { return 1.96 * r.StdErr() }

// Min and Max return the observed extremes (0 for no observations).
func (r *Running) Min() float64 { return r.min }
func (r *Running) Max() float64 { return r.max }

// String renders "n=512 mean=2.56e-02 std=1.2e-04 [min, max]".
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g [%.4g, %.4g]",
		r.n, r.mean, r.StdDev(), r.min, r.max)
}

// Quantile returns the q-quantile (q in [0,1], clamped) of the values
// by nearest-rank on a sorted copy.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	under  int
	over   int
}

// NewHistogram builds a histogram with the given bucket count.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if buckets < 1 || !(hi > lo) {
		panic("stats: histogram needs hi > lo and buckets >= 1")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, buckets)}
}

// Add counts one observation (out-of-range values go to under/over).
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) {
			i--
		}
		h.Counts[i]++
	}
}

// Total returns all observations including out-of-range ones.
func (h *Histogram) Total() int {
	t := h.under + h.over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Render draws the histogram as ASCII bars of at most width characters.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	max := 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var sb strings.Builder
	step := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/max)
		fmt.Fprintf(&sb, "[%10.3g, %10.3g) %6d %s\n",
			h.Lo+float64(i)*step, h.Lo+float64(i+1)*step, c, bar)
	}
	if h.under > 0 {
		fmt.Fprintf(&sb, "under: %d\n", h.under)
	}
	if h.over > 0 {
		fmt.Fprintf(&sb, "over: %d\n", h.over)
	}
	return sb.String()
}
