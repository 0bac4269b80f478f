package nvm

import (
	"slices"
	"strconv"
	"testing"

	"oocnvm/internal/sim"
)

// fastLink is an instantaneous host path for isolating media behaviour.
type fastLink struct{}

func (fastLink) Transfer(at sim.Time, n int64) sim.Time { return at }
func (fastLink) RequestOverhead() sim.Time              { return 0 }
func (fastLink) BytesPerSec() float64                   { return 1e18 }

// slowLink is a serializing link with a fixed rate.
type slowLink struct {
	tl  sim.Timeline
	bps float64
}

func (l *slowLink) Transfer(at sim.Time, n int64) sim.Time {
	_, end := l.tl.Acquire(at, sim.DurationForBytes(n, l.bps))
	return end
}
func (l *slowLink) RequestOverhead() sim.Time { return 0 }
func (l *slowLink) BytesPerSec() float64      { return l.bps }

func newTestDevice(t *testing.T, cell CellType, bus BusParams, link Link) *Device {
	t.Helper()
	d, err := NewDevice(PaperGeometry(), Params(cell), bus, link, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func readOp(lpn int64, d *Device) PageOp {
	return PageOp{Op: OpRead, Loc: d.Geo.MapLogical(lpn, d.Cell.Planes)}
}

func seqReadOps(d *Device, pages int) []PageOp {
	ops := make([]PageOp, pages)
	for i := range ops {
		ops[i] = readOp(int64(i), d)
	}
	return ops
}

func TestNewDeviceRejectsNilLink(t *testing.T) {
	if _, err := NewDevice(PaperGeometry(), Params(SLC), ONFi3SDR(), nil, 0); err == nil {
		t.Fatal("nil link accepted")
	}
}

func TestNewDeviceRejectsBadGeometry(t *testing.T) {
	if _, err := NewDevice(Geometry{}, Params(SLC), ONFi3SDR(), fastLink{}, 0); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

func TestSubmitEmpty(t *testing.T) {
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	if got := d.Submit(42, nil); got != 42 {
		t.Fatalf("empty submit = %v, want 42", got)
	}
}

func TestSingleReadLatency(t *testing.T) {
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	end := d.Submit(0, []PageOp{readOp(0, d)})
	// cmd (30ns) + tR (25us) + register staging + channel transfer (5.12us).
	min := 25 * sim.Microsecond
	max := 35 * sim.Microsecond
	if end < min || end > max {
		t.Fatalf("single page read completed at %v, want within [%v, %v]", end, min, max)
	}
	st := d.Stats()
	if st.Reads != 1 || st.BytesRead != d.Cell.PageSize {
		t.Fatalf("stats: %d reads, %d bytes", st.Reads, st.BytesRead)
	}
}

func TestReadsOnDistinctChannelsRunInParallel(t *testing.T) {
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	one := d.Submit(0, []PageOp{readOp(0, d)})
	d2 := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	// Eight pages, one per channel, issued together.
	both := d2.Submit(0, seqReadOps(d2, 8))
	if both > one+one/2 {
		t.Fatalf("8 channel-parallel reads took %v vs %v for one page", both, one)
	}
}

func TestReadsOnSameDieSerialize(t *testing.T) {
	d := newTestDevice(t, TLC, ONFi3SDR(), fastLink{}) // TLC: 1 plane, no merging
	loc := d.Geo.MapLogical(0, 1)
	ops := []PageOp{{Op: OpRead, Loc: loc}, {Op: OpRead, Loc: loc}}
	end := d.Submit(0, ops)
	if end < 2*d.Cell.ReadLatency {
		t.Fatalf("two reads on one die finished in %v, below 2x tR = %v", end, 2*d.Cell.ReadLatency)
	}
}

func TestMultiplaneMergingSharesOneSensing(t *testing.T) {
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	// Both planes of channel 0, die 0: lpn 0 and lpn C (plane stride).
	ops := []PageOp{readOp(0, d), readOp(int64(d.Geo.Channels), d)}
	d.Submit(0, ops)
	st := d.Stats()
	if st.Breakdown.CellActivation != d.Cell.ReadLatency {
		t.Fatalf("merged multi-plane read sensed %v, want one tR = %v",
			st.Breakdown.CellActivation, d.Cell.ReadLatency)
	}
	if st.Reads != 2 {
		t.Fatalf("reads = %d, want 2", st.Reads)
	}
}

func TestNoMultiplaneForSinglePlaneMedium(t *testing.T) {
	d := newTestDevice(t, TLC, ONFi3SDR(), fastLink{})
	loc0 := d.Geo.MapLogical(0, 1)
	loc1 := loc0
	loc1.Plane = 1 // forced; TLC mod-folds this back to plane 0
	d.Submit(0, []PageOp{{Op: OpRead, Loc: loc0}, {Op: OpRead, Loc: loc1}})
	st := d.Stats()
	if st.Breakdown.CellActivation != 2*d.Cell.ReadLatency {
		t.Fatalf("TLC sensed %v, want two full tR", st.Breakdown.CellActivation)
	}
}

func TestPALClassification(t *testing.T) {
	cases := []struct {
		name string
		ops  func(d *Device) []PageOp
		want PAL
	}{
		{"single page", func(d *Device) []PageOp {
			return []PageOp{readOp(0, d)}
		}, PAL1},
		{"two dies one channel", func(d *Device) []PageOp {
			a := Location{Channel: 0, Die: 0, Plane: 0}
			b := Location{Channel: 0, Die: 1, Plane: 0}
			return []PageOp{{Op: OpRead, Loc: a}, {Op: OpRead, Loc: b}}
		}, PAL2},
		{"both planes one die", func(d *Device) []PageOp {
			a := Location{Channel: 0, Die: 0, Plane: 0}
			b := Location{Channel: 0, Die: 0, Plane: 1}
			return []PageOp{{Op: OpRead, Loc: a}, {Op: OpRead, Loc: b}}
		}, PAL3},
		{"planes and dies", func(d *Device) []PageOp {
			return []PageOp{
				{Op: OpRead, Loc: Location{Channel: 0, Die: 0, Plane: 0}},
				{Op: OpRead, Loc: Location{Channel: 0, Die: 0, Plane: 1}},
				{Op: OpRead, Loc: Location{Channel: 0, Die: 1, Plane: 0}},
			}
		}, PAL4},
	}
	for _, c := range cases {
		d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
		d.Submit(0, c.ops(d))
		h := d.Stats().PAL
		if h[c.want-1] != 1 || h.Total() != 1 {
			t.Errorf("%s: histogram %v, want one request at %v", c.name, h, c.want)
		}
	}
}

func TestProgramPath(t *testing.T) {
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	end := d.Submit(0, []PageOp{{Op: OpProgram, Loc: Location{}}})
	if end < d.Cell.ProgramLatencyMin {
		t.Fatalf("program completed in %v, below tPROG %v", end, d.Cell.ProgramLatencyMin)
	}
	st := d.Stats()
	if st.Programs != 1 || st.BytesWritten != d.Cell.PageSize {
		t.Fatalf("stats: %d programs, %d bytes", st.Programs, st.BytesWritten)
	}
	if st.Breakdown.CellActivation < d.Cell.ProgramLatencyMin {
		t.Fatal("program time not accounted as cell activation")
	}
}

func TestErasePath(t *testing.T) {
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	loc := Location{Channel: 3, Die: 5, Plane: 1}
	end := d.Submit(0, []PageOp{{Op: OpErase, Loc: loc}})
	if end < d.Cell.EraseLatency {
		t.Fatalf("erase completed in %v, below tBERS %v", end, d.Cell.EraseLatency)
	}
	if d.Stats().Erases != 1 {
		t.Fatal("erase not counted")
	}
	if d.EraseCount(loc) != 1 {
		t.Fatal("wear accounting missed the erase")
	}
	if d.EraseCount(Location{Channel: 0, Die: 0}) != 0 {
		t.Fatal("wear accounting leaked to other locations")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, Stats) {
		d := newTestDevice(t, MLC, ONFi3SDR(), fastLink{})
		var end sim.Time
		for i := 0; i < 10; i++ {
			ops := seqReadOps(d, 64)
			ops = append(ops, PageOp{Op: OpProgram, Loc: d.Geo.MapLogical(int64(i), d.Cell.Planes)})
			end = d.Submit(sim.Time(i)*sim.Microsecond, ops)
		}
		return end, d.Stats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatal("identical runs diverged")
	}
}

func TestSequentialReadHitsBusLimit(t *testing.T) {
	// A large page-striped sequential read with an infinite host link should
	// saturate the aggregate channel bus: 8 x 400 MB/s = 3.2 GB/s for SLC.
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	const total = 64 << 20
	pages := int(total / d.Cell.PageSize)
	var end sim.Time
	const chunk = 4096
	for i := 0; i < pages; i += chunk {
		ops := make([]PageOp, 0, chunk)
		for j := i; j < i+chunk && j < pages; j++ {
			ops = append(ops, readOp(int64(j), d))
		}
		end = d.Submit(0, ops)
	}
	bw := sim.Rate(total, end)
	if bw < 2.8e9 || bw > 3.3e9 {
		t.Fatalf("sequential SLC bandwidth %.2f GB/s, want ~3.2 (bus limit)", bw/1e9)
	}
}

func TestSlowLinkDominatesBreakdown(t *testing.T) {
	link := &slowLink{bps: 100e6} // 100 MB/s: far below the media
	d := newTestDevice(t, SLC, ONFi3SDR(), link)
	for i := 0; i < 4; i++ {
		d.Submit(0, seqReadOps(d, 1024))
	}
	p := d.Stats().Breakdown.Percentages()
	if p[0] < 0.5 {
		t.Fatalf("non-overlapped DMA share %.2f, want dominant behind a slow link", p[0])
	}
}

func TestUtilizationBounds(t *testing.T) {
	d := newTestDevice(t, TLC, ONFi3SDR(), fastLink{})
	d.Submit(0, seqReadOps(d, 2048))
	st := d.Stats()
	for name, u := range map[string]float64{
		"channel": st.ChannelUtilization,
		"package": st.PackageUtilization,
		"bus":     st.BusOccupancy,
	} {
		if u < 0 || u > 1 {
			t.Errorf("%s utilization %v outside [0,1]", name, u)
		}
	}
	if st.ChannelUtilization < st.PackageUtilization {
		t.Error("channel 'kept busy' union cannot be below package union")
	}
}

func TestIdleDeviceStats(t *testing.T) {
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	st := d.Stats()
	if st.Span != 0 || st.ChannelUtilization != 0 || st.PackageUtilization != 0 {
		t.Fatalf("idle device reports activity: %+v", st)
	}
	if d.Bandwidth() != 0 {
		t.Fatal("idle device reports bandwidth")
	}
}

func TestIdealReadBandwidth(t *testing.T) {
	d := newTestDevice(t, SLC, ONFi3SDR(), fastLink{})
	// SLC at SDR is bus-limited: ideal = 8 channels x 400 MB/s.
	if got := d.IdealReadBandwidth(); got != 3.2e9 {
		t.Fatalf("SLC ideal = %v, want 3.2e9", got)
	}
	// TLC at the DDR bus is cell-limited: below the 25.6 GB/s bus aggregate.
	dt := newTestDevice(t, TLC, FutureDDR(), fastLink{})
	got := dt.IdealReadBandwidth()
	if got >= 25.6e9 || got < 5e9 {
		t.Fatalf("TLC ideal on DDR = %.2f GB/s, want cell-limited in (5, 25.6)", got/1e9)
	}
}

func TestRequestOverheadCharged(t *testing.T) {
	overhead := 8 * sim.Microsecond
	link := overheadLink{oh: overhead}
	d, err := NewDevice(PaperGeometry(), Params(SLC), ONFi3SDR(), link, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Submit(0, []PageOp{readOp(0, d)})
	if d.Stats().Breakdown.NonOverlappedDMA < overhead {
		t.Fatal("per-request link overhead not charged to DMA")
	}
}

type overheadLink struct{ oh sim.Time }

func (l overheadLink) Transfer(at sim.Time, n int64) sim.Time { return at }
func (l overheadLink) RequestOverhead() sim.Time              { return l.oh }
func (l overheadLink) BytesPerSec() float64                   { return 1e18 }

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpProgram.String() != "program" || OpErase.String() != "erase" {
		t.Fatal("op names wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Fatal("unknown op should render its number")
	}
}

// mediaLog records the order in which the device commits programs and
// erases to the media.
type mediaLog []string

func (m *mediaLog) MediaProgram(op PageOp, torn bool) {
	*m = append(*m, "program "+strconv.FormatInt(op.PPN, 10))
}
func (m *mediaLog) MediaErase(op PageOp, torn bool) {
	*m = append(*m, "erase "+strconv.FormatInt(op.PPN, 10))
}

// TestEraseBarrierOrdersReprogram pins the durable-mode erase barrier
// around a garbage-collection victim reallocated within the request that
// collected it: the victim's erase lands after the program the request
// issued before it, and before the program into the erased block that
// follows it.
func TestEraseBarrierOrdersReprogram(t *testing.T) {
	d := newTestDevice(t, MLC, ONFi3SDR(), fastLink{})
	var log mediaLog
	d.SetMediaTap(&log)
	row := int64(d.Geo.Channels * d.Cell.Planes * d.Geo.DiesPerChannel())
	spb := row * int64(d.Cell.PagesPerBlock)
	op := func(kind Op, ppn int64) PageOp {
		return PageOp{Op: kind, Loc: d.Geo.MapLogical(ppn, d.Cell.Planes), PPN: ppn}
	}
	// Relocate into the next superblock, erase the victim's first
	// eraseblock, then program a page of that same eraseblock (row 1,
	// slot 0).
	d.Submit(0, []PageOp{op(OpProgram, spb), op(OpErase, 0), op(OpProgram, row)})
	want := []string{"program " + strconv.FormatInt(spb, 10), "erase 0", "program " + strconv.FormatInt(row, 10)}
	if !slices.Equal(log, want) {
		t.Fatalf("media commits %v, want %v", log, want)
	}
}
