package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between the two closest ranks. sorted must be
// non-empty and ascending.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

// quartiles returns the first and third quartiles with the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so the
// spreads this program prints match the ones an external checker
// computes from the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	// A literal transcription of CPython's exclusive method, including
	// its clamping of j (which extrapolates for very small samples).
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relIQR is the interquartile distance as a share of the median.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailLadder is the set of percentiles the tail is chosen from, in
// tenths of a percent so that the count beyond each is exact.
var tailLadder = []int{999, 990, 900, 500}

// tailPercentile picks the highest percentile on tailLadder that has at
// least ten samples beyond it. With fewer than 20 samples not even the
// median qualifies; it then falls back to p50 and reports ok=false, so
// callers print the median alone.
func tailPercentile(n int) (p float64, ok bool) {
	for _, t := range tailLadder {
		if n*(1000-t)/1000 >= 10 {
			return float64(t) / 10, true
		}
	}
	return 50, false
}

// summary is a timing sample summarized the way the benchmark reports
// every timing: median, the highest well-supported percentile, and n.
type summary struct {
	N     int
	P50   float64
	TailP float64 // which percentile Tail is (50 when n < 100)
	Tail  float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	p, _ := tailPercentile(len(s))
	return summary{N: len(s), P50: quantile(s, 0.5), TailP: p, Tail: quantile(s, p/100)}
}

func (s summary) String() string {
	if s.TailP == 50 {
		return fmt.Sprintf("p50 %.4g (n=%d)", s.P50, s.N)
	}
	return fmt.Sprintf("p50 %.4g  p%g %.4g (n=%d)", s.P50, s.TailP, s.Tail, s.N)
}

// scaled returns s with its values multiplied by f (a unit change).
func (s summary) scaled(f float64) summary {
	s.P50 *= f
	s.Tail *= f
	return s
}
