package main

import "sort"

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a timing tail: the highest percentile of the samples that
// still has at least tailBeyond samples above it, with the sample
// count it was taken from.
type tail struct {
	Value   float64
	Pct     float64
	Samples int
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tailOf returns the tail of xs. With tailBeyond or fewer samples no
// percentile qualifies; the maximum is reported, as the 100th
// percentile, so the value is still a conservative tail.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Pct: 100, Samples: n}
	}
	i := n - tailBeyond - 1
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), Samples: n}
}
