package experiment

import (
	"fmt"
	"testing"

	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/hostperf"
)

// runCell evaluates one TestOptions cell under a fresh host collector and
// returns its summary.
func runCell(t *testing.T) *hostperf.Summary {
	t.Helper()
	host := hostperf.NewCollector()
	opt := TestOptions()
	opt.MeasureRemaining = false
	opt.Host = host
	cfg, err := FindConfig("CNL-EXT4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, nvm.TLC, opt); err != nil {
		t.Fatal(err)
	}
	return host.Summary()
}

// TestHostPerfAttributionCoverage checks that a run under a host collector
// is recorded as exactly one phase, named after its matrix cell, whose cost
// is non-empty and contained in the collector's total.
func TestHostPerfAttributionCoverage(t *testing.T) {
	s := runCell(t)
	if s.Total.AllocObjs == 0 {
		t.Fatal("run allocated nothing — collector broken")
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != "cell CNL-EXT4/TLC" {
		t.Fatalf("phases = %+v, want one 'cell CNL-EXT4/TLC'", s.Phases)
	}
	cell := s.Phases[0]
	if cell.AllocObjs == 0 || cell.Wall <= 0 {
		t.Fatalf("phase cost empty: %+v", cell)
	}
	if cell.AllocObjs > s.Total.AllocObjs || cell.Wall > s.Total.Wall {
		t.Errorf("phase cost %+v exceeds collector total %+v", cell, s.Total)
	}
}

// TestPerSiteAllocBudget pins the allocation count of one full TestOptions
// evaluation cell, read from the cell's own host-perf phase. Before the
// free-listed lifecycle the same cell allocated ~101k objects; the pooled
// engine holds it to a few hundred. The per-request paths inside the cell
// are pinned exactly at zero by the steady-state AllocsPerRun tests in nvm,
// ssd, obs, attrib and sim; when this ceiling trips, find the new site with
// -memprofile and `go tool pprof -sample_index=alloc_objects -top`.
func TestPerSiteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget runs a full evaluation cell")
	}
	s := runCell(t)
	if len(s.Phases) != 1 {
		t.Fatalf("phases = %+v, want one cell phase", s.Phases)
	}
	cell := s.Phases[0]
	t.Logf("cell allocated %d objects", cell.AllocObjs)
	const cellBudget = 1_000 // measured 571 objects for the 96 MiB TestOptions cell
	if cell.AllocObjs > cellBudget {
		t.Errorf("evaluation cell allocated %d objects, budget %d\n%s",
			cell.AllocObjs, cellBudget, s.FormatTable())
	}
}

// TestMatrixSerializesUnderAttribution proves measurement mode (a host
// collector in opt.Host) keeps matrix results identical to the concurrent
// default: same seed, same cells, same measurements, with every cell phase
// recorded as its own row.
func TestMatrixSerializesUnderAttribution(t *testing.T) {
	opt := TestOptions()
	opt.MeasureRemaining = false
	configs := FileSystemConfigs()[:2]
	cells := []nvm.CellType{nvm.TLC}

	plain, err := Matrix(configs, cells, opt)
	if err != nil {
		t.Fatal(err)
	}

	host := hostperf.NewCollector()
	opt.Host = host
	serial, err := Matrix(configs, cells, opt)
	if err != nil {
		t.Fatal(err)
	}

	if len(plain) != len(serial) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(plain), len(serial))
	}
	for i := range plain {
		if plain[i].AchievedMBps() != serial[i].AchievedMBps() {
			t.Errorf("cell %d: achieved %v (concurrent) != %v (attributed)",
				i, plain[i].AchievedMBps(), serial[i].AchievedMBps())
		}
	}
	s := host.Summary()
	if len(s.Phases) != len(configs)*len(cells) {
		t.Errorf("recorded %d phases, want %d", len(s.Phases), len(configs)*len(cells))
	}
	want := map[string]bool{}
	for _, cfg := range configs {
		for _, cell := range cells {
			want[fmt.Sprintf("cell %s/%s", cfg.Name, cell)] = true
		}
	}
	for _, p := range s.Phases {
		if !want[p.Name] {
			t.Errorf("unexpected phase %q", p.Name)
		}
	}
}
