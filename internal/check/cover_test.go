package check

import (
	"testing"

	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
)

// TestCoverMemoryBoundedByInFlightWork replays rounds of mixed
// write/trim/read traffic through an FTL drive and requires the device's
// largest pending utilization cover set after 4R rounds to be no larger
// than after R: the folded sets hold in-flight work, not run history (an
// unfolded union holds every disjoint busy span, four times as many after
// four times the traffic).
func TestCoverMemoryBoundedByInFlightWork(t *testing.T) {
	const r = 2
	sc := StackConfig{Config: findConfig(t, "CNL-EXT4"), Cell: nvm.MLC, Seed: 42}
	st, err := buildStack(sc)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(sc.Capacity(), nvm.Params(sc.Cell).PageSize)
	rng := sim.NewRNG(sc.Seed)
	var atR, peak int
	for round := 1; round <= 4*r; round++ {
		for _, op := range Generate(p, rng) {
			st.drive.Submit(op)
			peak = max(peak, st.drive.Dev.PendingCoverSpans())
		}
		if round == r {
			atR = st.drive.Dev.PendingCoverSpans()
		}
	}
	at4R := st.drive.Dev.PendingCoverSpans()
	t.Logf("largest pending cover set: %d spans after %d rounds, %d after %d (high-water %d)", atR, r, at4R, 4*r, peak)
	if at4R > atR {
		t.Fatalf("pending cover spans grew with run length: %d after %d rounds, %d after %d", atR, r, at4R, 4*r)
	}
	if v := st.checked.Oracle().Violations(); len(v) > 0 {
		t.Fatalf("%d oracle violations, first: %v", len(v), v[0])
	}
}
