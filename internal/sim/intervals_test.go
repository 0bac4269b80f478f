package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalSetDisjoint(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	if got := s.Covered(); got != 20 {
		t.Fatalf("Covered = %v, want 20", got)
	}
}

func TestIntervalSetOverlapMerges(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(5, 15)
	if got := s.Covered(); got != 15 {
		t.Fatalf("Covered = %v, want 15", got)
	}
}

func TestIntervalSetContainment(t *testing.T) {
	var s IntervalSet
	s.Add(0, 100)
	s.Add(10, 20)
	if got := s.Covered(); got != 100 {
		t.Fatalf("Covered = %v, want 100", got)
	}
}

func TestIntervalSetOutOfOrder(t *testing.T) {
	var s IntervalSet
	s.Add(50, 60)
	s.Add(0, 10)
	s.Add(55, 70)
	s.Add(5, 52)
	if got := s.Covered(); got != 70 {
		t.Fatalf("Covered = %v, want 70", got)
	}
}

func TestIntervalSetIgnoresEmpty(t *testing.T) {
	var s IntervalSet
	s.Add(10, 10)
	s.Add(10, 5)
	if s.Covered() != 0 || s.Len() != 0 {
		t.Fatal("empty/negative intervals must be ignored")
	}
}

func TestIntervalSetAddAfterCovered(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	if s.Covered() != 10 {
		t.Fatal("setup")
	}
	// Adding after a Covered read must still work, both appending and
	// overlapping.
	s.Add(20, 30)
	s.Add(25, 40)
	s.Add(5, 6)
	if got := s.Covered(); got != 30 {
		t.Fatalf("Covered = %v, want 30", got)
	}
}

func TestIntervalSetUtilization(t *testing.T) {
	var s IntervalSet
	s.Add(0, 25)
	if got := s.Utilization(100); got != 0.25 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
	if got := s.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", got)
	}
	if got := s.Utilization(10); got != 1 {
		t.Fatalf("Utilization must clamp at 1, got %v", got)
	}
}

func TestIntervalSetReset(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Reset()
	if s.Covered() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// Property: Covered matches a brute-force union over arbitrary interval
// sequences. When moves is non-empty the stream also respects a moving
// watermark — each span starts at or above it — and the set is folded at
// the watermark at random points, which must not change the union.
func TestIntervalSetMatchesBruteForceProperty(t *testing.T) {
	type iv struct{ s, e Time }
	f := func(raw []uint16, moves []uint8) bool {
		var set IntervalSet
		var ivs []iv
		var w Time
		for i, r := range raw {
			if len(moves) > 0 {
				if m := moves[i%len(moves)]; m%3 == 0 {
					w += Time(m % 41)
					set.Fold(w)
				}
			}
			start := w + Time(r%199)
			end := start + Time(r%31)
			set.Add(start, end)
			if end > start {
				ivs = append(ivs, iv{start, end})
			}
		}
		// Brute force: merge sorted intervals.
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		var want Time
		var cur iv
		for i, v := range ivs {
			if i == 0 {
				cur = v
				continue
			}
			if v.s <= cur.e {
				if v.e > cur.e {
					cur.e = v.e
				}
				continue
			}
			want += cur.e - cur.s
			cur = v
		}
		if len(ivs) > 0 {
			want += cur.e - cur.s
		}
		return set.Covered() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIntervalSetFoldDropsSettledSpans(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(25, 40)
	s.Fold(30) // [0,10) settles; [20,40) straddles the watermark
	if s.Len() != 1 || s.Covered() != 30 {
		t.Fatalf("after Fold(30): len=%d covered=%v, want 1 and 30", s.Len(), s.Covered())
	}
	s.Add(40, 50) // touches the pending span: merges
	s.Fold(20)    // a lower watermark is a weaker promise: no-op
	s.Fold(50)
	if s.Len() != 0 || s.Covered() != 40 {
		t.Fatalf("after Fold(50): len=%d covered=%v, want 0 and 40", s.Len(), s.Covered())
	}
	s.Reset()
	s.Add(0, 5) // Reset lowers the watermark again
	if s.Covered() != 5 {
		t.Fatalf("after Reset: covered=%v, want 5", s.Covered())
	}
}

func TestIntervalSetAddBelowWatermarkPanics(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Fold(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Add below the fold watermark must panic")
		}
	}()
	s.Add(7, 12)
}

// Property: interleaving Covered() calls with Adds never changes the result.
func TestIntervalSetLazyMergeStableProperty(t *testing.T) {
	f := func(raw []uint16, probe uint8) bool {
		var a, b IntervalSet
		for i, r := range raw {
			start := Time(r % 97)
			end := start + Time(r%17) + 1
			a.Add(start, end)
			b.Add(start, end)
			if i%int(probe%5+1) == 0 {
				_ = b.Covered() // read mid-stream
			}
		}
		return a.Covered() == b.Covered()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
