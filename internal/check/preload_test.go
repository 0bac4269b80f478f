package check

import (
	"testing"

	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
)

// TestPreloadOverwriteReclaimsSpace overwrites a preloaded extent for three
// rounds of the default mixed workload. Garbage collection must reclaim the
// preloaded superblocks as the overwrites empty them: an FTL that never
// picks them as victims relocates the same few superblocks over and over
// (write amplification above 12 at three rounds) and finally panics with
// an exhausted free pool.
func TestPreloadOverwriteReclaimsSpace(t *testing.T) {
	geo := nvm.Geometry{Channels: 8, PackagesPerChannel: 2, DiesPerPackage: 2, BlocksPerPlane: 16}
	sc := StackConfig{Config: findConfig(t, "CNL-EXT4"), Cell: nvm.MLC, Geometry: geo, Seed: 42}
	sc.preload = sc.Capacity() / 2
	p := DefaultParams(sc.Capacity(), nvm.Params(sc.Cell).PageSize)
	p.Ops *= 3
	ops := Generate(p, sim.NewRNG(sc.Seed))

	st, err := buildStack(sc)
	if err != nil {
		t.Fatal(err)
	}
	st.drive.Replay(ops)
	if err := st.drive.Err(); err != nil {
		t.Fatalf("replay surfaced %v", err)
	}
	for i, v := range st.checked.Oracle().Violations() {
		t.Errorf("oracle violation: %v", v)
		if i == 4 {
			break
		}
	}
	f := st.checked.inner.(*ftl.FTL)
	if f.Stats().GCRuns == 0 {
		t.Fatal("the workload never ran garbage collection")
	}
	if wa := f.WriteAmplification(); wa >= 2 {
		t.Errorf("write amplification %.2f, want below 2", wa)
	}
}

// TestPreloadOverwriteCrashSweep is the durable-mode variant: a preloaded
// extent overwritten past the free pool, crashed at every Nth
// program/erase boundary. GC relocations of live identity pages and the
// erases of collected preloaded superblocks must survive recovery like any
// other placement.
func TestPreloadOverwriteCrashSweep(t *testing.T) {
	sc := StackConfig{Config: findConfig(t, "CNL-EXT4"), Cell: nvm.MLC, Seed: 42}
	sc.preload = sc.Capacity() / 2
	res, err := CrashSweep(sc, DefaultParams(sc.Capacity(), nvm.Params(sc.Cell).PageSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points == 0 {
		t.Fatalf("sweep had no crash points (total PE ops %d)", res.TotalPEOps)
	}
	if !res.DeterminismOK {
		t.Error("recovery not deterministic")
	}
	for _, f := range res.Failures {
		t.Errorf("crash %+v: %d violations, first: %v", f.Plan, len(f.Violations), f.Violations[0])
		break
	}
}
