package main

import (
	"math"
	"slices"
	"sort"
)

// failCeilingNS is the latency a failed operation is given: it ranks above
// every completed operation, so a percentile that lands on a failure reads
// this fixed value. One virtual second is far above any single operation
// this simulator completes.
const failCeilingNS = 1_000_000_000

// latencies is a pooled latency sample in which failed operations count as
// missing every limit. Virtual latencies take few distinct values, so the
// sample is kept as counts per value: exact, and as small after a hundred
// rounds as after one.
type latencies struct {
	count  map[int64]int64 // completed operations by virtual latency
	done   int64
	failed int64
}

func (l *latencies) add(ns int64, failed bool) {
	if failed {
		l.failed++
		return
	}
	if l.count == nil {
		l.count = map[int64]int64{}
	}
	l.count[ns]++
	l.done++
}

// n is the sample count: every attempted operation.
func (l *latencies) n() int64 { return l.done + l.failed }

// quantile returns the q-quantile of the sample. When the nearest rank
// falls on a failed operation it reads failCeilingNS. Otherwise it is the
// mid-distribution quantile of the completed latencies: each distinct value
// sits at the midpoint of the ranks it occupies, and q is interpolated
// linearly between neighbouring values (Hyndman-Fan type 5 when all values
// differ). The simulator's cost model is discrete, so a nearest-rank
// percentile jumps from one cost level to the next as the operation mix
// shifts by a fraction of a percent; this estimator moves smoothly with
// both the levels and their shares. It returns 0 for an empty sample.
func (l *latencies) quantile(q float64) float64 {
	n := l.n()
	if n == 0 {
		return 0
	}
	if l.nearestRank(q) > l.done {
		return failCeilingNS
	}
	values := make([]int64, 0, len(l.count))
	for v := range l.count {
		values = append(values, v)
	}
	slices.Sort(values)
	var below int64
	var prevU, prevX float64
	for i, v := range values {
		c := l.count[v]
		u := (float64(below) + float64(c)/2) / float64(n)
		x := float64(v)
		if q <= u {
			if i == 0 {
				return x
			}
			return prevX + (q-prevU)/(u-prevU)*(x-prevX)
		}
		below += c
		prevU, prevX = u, x
	}
	return prevX
}

// nearestRank is the 1-based rank of the q-quantile.
func (l *latencies) nearestRank(q float64) int64 {
	n := l.n()
	return min(max(int64(math.Ceil(q*float64(n))), 1), n)
}

// beyond is the number of samples ranked above the q-quantile.
func (l *latencies) beyond(q float64) int64 { return l.n() - l.nearestRank(q) }

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
