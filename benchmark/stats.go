package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named measurement with its unit, as printed and as written
// to every JSON the benchmark emits.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between order statistics; 0 for an empty sample. It sorts a
// copy, so callers keep their sample order.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// ratio is a/b, 0 when the denominator is 0 (a layer the workload never
// entered reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeCalls runs f n times and returns each call's duration in the unit
// conv produces.
func timeCalls(n int, conv func(time.Duration) float64, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, conv(time.Since(t)))
	}
	return out, nil
}
