package sim

import (
	"fmt"
	"slices"
	"sort"
)

// IntervalSet accumulates possibly-overlapping busy intervals and reports
// the total covered time — the "kept busy" union the paper's channel- and
// package-level utilization probes measure.
//
// The set streams. Its owner calls Fold(w) with a watermark w below which no
// later Add can start; every pending span ending at or before w is then
// disjoint from all future spans, so its length moves into a scalar total
// and the span is dropped. Pending spans are kept sorted by start and
// pairwise disjoint (an Add merges whatever it touches), so folding pops from
// the front and Covered never sorts. Memory is therefore bounded by the spans
// at or above the watermark — in-flight work when the watermark tracks the
// owner's resource horizons. A set whose watermark never moves (its owner
// has a resource that is never booked, say) keeps every disjoint span, as an
// unfolded union must.
type IntervalSet struct {
	spans  []span // pending spans: sorted, disjoint, non-touching
	folded Time   // covered time of the spans already folded away
	floor  Time   // highest watermark passed to Fold
}

type span struct{ start, end Time }

// Add records a busy interval. Zero- or negative-length intervals are
// ignored. An interval starting below the fold watermark breaks the promise
// Fold was given and would be double-counted, so Add panics on it.
func (s *IntervalSet) Add(start, end Time) {
	if end <= start {
		return
	}
	if start < s.floor {
		panic(fmt.Sprintf("sim: interval [%d, %d) starts below the fold watermark %d", start, end, s.floor))
	}
	n := len(s.spans)
	if n == 0 || start > s.spans[n-1].end {
		s.spans = append(s.spans, span{start, end})
		return
	}
	if last := &s.spans[n-1]; start >= last.start {
		last.end = max(last.end, end)
		return
	}
	// Spans [i, j) touch [start, end): ends are increasing, so the first
	// reaching start is found by bisection; the touched run is short.
	i := sort.Search(n, func(k int) bool { return s.spans[k].end >= start })
	j := i
	for j < n && s.spans[j].start <= end {
		j++
	}
	if i == j {
		s.spans = slices.Insert(s.spans, i, span{start, end})
		return
	}
	s.spans[i] = span{min(start, s.spans[i].start), max(end, s.spans[j-1].end)}
	s.spans = slices.Delete(s.spans, i+1, j)
}

// Fold promises that no later Add starts before w and folds every pending
// span ending at or before w into the covered total. A watermark below an
// earlier one is a weaker promise and changes nothing.
func (s *IntervalSet) Fold(w Time) {
	if w <= s.floor {
		return
	}
	s.floor = w
	k := 0
	for k < len(s.spans) && s.spans[k].end <= w {
		s.folded += s.spans[k].end - s.spans[k].start
		k++
	}
	if k > 0 {
		s.spans = s.spans[:copy(s.spans, s.spans[k:])]
	}
}

// Covered returns the total length of the union of all intervals.
func (s *IntervalSet) Covered() Time {
	total := s.folded
	for _, sp := range s.spans {
		total += sp.end - sp.start
	}
	return total
}

// Utilization returns covered time over the span, clamped to [0, 1].
func (s *IntervalSet) Utilization(spanLen Time) float64 {
	if spanLen <= 0 {
		return 0
	}
	u := float64(s.Covered()) / float64(spanLen)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset empties the set, keeping its storage for reuse.
func (s *IntervalSet) Reset() { *s = IntervalSet{spans: s.spans[:0]} }

// Len reports the pending (unfolded) span count: the set's memory.
func (s *IntervalSet) Len() int { return len(s.spans) }
