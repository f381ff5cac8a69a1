package load

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p % of the samples at
// or below it. It returns 0 for an empty slice. Nearest rank never
// interpolates, so a reported figure is always a latency some op really had.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median returns the middle value of vals (the mean of the two middle values
// for an even count), leaving vals untouched.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// Spread is the noise figure printed beside every median: the distance
// between the first and the third quartile of the repetitions (nearest rank) ÷
// their median; with fewer than four repetitions, (max − min) ÷ median. It is 0
// when the median is 0.
func Spread(vals []float64) float64 {
	med := Median(vals)
	if len(vals) == 0 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = Percentile(s, 25), Percentile(s, 75)
	}
	return (hi - lo) / math.Abs(med)
}

// Mean returns the arithmetic mean, 0 for an empty slice.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// timerSlack is how late the pacing goroutine may run before the lateness is
// charged to the program. time.Sleep on the reference box overshoots by
// p50 0.56 ms / p90 1.0 ms — twice the ≈0.3 ms path under test — so ordinary
// timer jitter is forgiven; a backlog a stall imposes on later ops is not.
const timerSlack = 2 * time.Millisecond

// T0 is the instant an open-loop op's latency is counted from:
// min(issue instant, due + timerSlack), both as offsets from the rep's epoch.
func T0(issued, due time.Duration) time.Duration {
	if limit := due + timerSlack; issued > limit {
		return limit
	}
	return issued
}

// sortedMs converts nanosecond samples to sorted milliseconds.
func sortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
