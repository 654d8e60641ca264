package report

import (
	"math"
	"sort"
)

// Median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is what the noise protocol in the README is stated in. It needs at
// least two values; with fewer both quartiles equal the only value (or 0).
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// Rank k*(n+1)/4, clamped to 1..n-1; delta is taken after the
		// clamp, as CPython does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the inter-quartile distance of xs as a share of its median —
// the run-to-run noise measure used for every bound in BENCHMARK.json.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
