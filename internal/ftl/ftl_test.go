package ftl

import (
	"testing"

	"oocnvm/internal/nvm"
)

// smallGeo keeps superblocks tiny so GC paths are cheap to exercise:
// 2 channels x 1 package x 2 dies, 8 superblocks.
func smallGeo() nvm.Geometry {
	return nvm.Geometry{Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 2, BlocksPerPlane: 8}
}

func newSmall(t *testing.T, cell nvm.CellType) *FTL {
	t.Helper()
	f, err := New(smallGeo(), nvm.Params(cell), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(nvm.Geometry{}, nvm.Params(nvm.SLC), Config{}); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestCapacityAccounting(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	cell := nvm.Params(nvm.SLC)
	wantPages := int64(smallGeo().Dies()*cell.Planes*smallGeo().BlocksPerPlane) * int64(cell.PagesPerBlock)
	if f.Pages() != wantPages {
		t.Fatalf("pages = %d, want %d", f.Pages(), wantPages)
	}
	if f.CapacityBytes() != wantPages*cell.PageSize {
		t.Fatal("capacity wrong")
	}
	if f.PageSize() != cell.PageSize {
		t.Fatal("page size wrong")
	}
}

func TestReadIdentityStriping(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ops := f.Read(0, 4*f.PageSize())
	if len(ops) != 4 {
		t.Fatalf("4 pages -> %d ops", len(ops))
	}
	// Identity mapping stripes channel-first.
	if ops[0].Loc.Channel == ops[1].Loc.Channel {
		t.Fatal("consecutive pages on one channel; striping broken")
	}
	for _, op := range ops {
		if op.Op != nvm.OpRead {
			t.Fatal("wrong verb")
		}
	}
}

func TestReadPartialPages(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	// A sub-page read still senses the whole page.
	if got := len(f.Read(100, 10)); got != 1 {
		t.Fatalf("sub-page read -> %d ops, want 1", got)
	}
	// A 2-byte read straddling a page boundary needs both pages.
	if got := len(f.Read(f.PageSize()-1, 2)); got != 2 {
		t.Fatalf("straddling read -> %d ops, want 2", got)
	}
	if f.Read(0, 0) != nil {
		t.Fatal("zero-size read should be empty")
	}
}

func TestWriteAllocatesLog(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ops := f.Write(0, 3*f.PageSize())
	programs := 0
	for _, op := range ops {
		if op.Op == nvm.OpProgram {
			programs++
		}
	}
	if programs != 3 {
		t.Fatalf("programs = %d, want 3", programs)
	}
	st := f.Stats()
	if st.HostWrites != 3 || st.NANDWrites != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteThenReadRemapped(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	f.Write(0, f.PageSize())
	// After the write, reading lpn 0 must hit the log location, not the
	// identity location.
	ops := f.Read(0, f.PageSize())
	if len(ops) != 1 {
		t.Fatal("read op count")
	}
	// The log fills superblock s in layout order; identity lpn 0 also maps
	// to channel 0. We can't distinguish by channel alone, so overwrite a
	// page whose identity channel differs.
	f2 := newSmall(t, nvm.SLC)
	lpn := int64(1) // identity: channel 1
	f2.Write(lpn*f2.PageSize(), f2.PageSize())
	got := f2.Read(lpn*f2.PageSize(), f2.PageSize())[0].Loc
	idWant := f2.Locate(lpn)
	if got == idWant {
		t.Fatalf("overwritten page still reads identity location %+v", got)
	}
}

// TestReadRunLocationsMatchLocate reads runs over remapped pages — a lone
// overwritten page, a run of overwritten pages the log placed consecutively,
// and the wrap past the device's last page — and requires every op's
// location to be Locate of its physical page.
func TestReadRunLocationsMatchLocate(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ps := f.PageSize()
	f.Write(5*ps, ps)
	f.Write(20*ps, 6*ps)
	for _, run := range []struct{ first, n int64 }{
		{0, 32},
		{5, 1},
		{f.Pages() - 4, 8},
	} {
		remapped := 0
		for i, op := range f.Read(run.first*ps, run.n*ps) {
			if lpn := run.first + int64(i); op.PPN != lpn%f.Pages() {
				remapped++
			}
			if want := f.Locate(op.PPN); op.Loc != want {
				t.Fatalf("run %+v page %d: ppn %d at %+v, Locate gives %+v", run, i, op.PPN, op.Loc, want)
			}
		}
		if run.first <= 5 && remapped == 0 {
			t.Fatalf("run %+v read no remapped page", run)
		}
	}
}

func TestPreload(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	if err := f.Preload(f.CapacityBytes() / 2); err != nil {
		t.Fatal(err)
	}
	// Preloading beyond capacity minus reserve must fail.
	f2 := newSmall(t, nvm.SLC)
	if err := f2.Preload(f2.CapacityBytes()); err == nil {
		t.Fatal("over-preload accepted")
	}
}

func TestGCReclaimsInvalidatedSpace(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	// Repeatedly overwrite one small region. Each overwrite invalidates the
	// previous copy, so GC victims are nearly empty; the FTL must be able to
	// write far more than the free pool's raw size.
	region := 4 * f.PageSize()
	total := 4 * f.CapacityBytes()
	var erases int
	for written := int64(0); written < total; written += region {
		for _, op := range f.Write(0, region) {
			if op.Op == nvm.OpErase {
				erases++
			}
		}
	}
	st := f.Stats()
	if st.GCRuns == 0 || erases == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if st.FreeSuper < 1 {
		t.Fatal("free pool exhausted")
	}
}

func TestGCRelocatesLiveData(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	// Fill most of the device with live data (distinct lpns), then keep
	// writing: GC victims now hold live pages that must be relocated.
	pageSz := f.PageSize()
	livePages := f.Pages() * 3 / 4
	f.Write(0, livePages*pageSz)
	// Overwrite scattered pages (stride co-prime to the superblock size) so
	// invalidation spreads across superblocks and GC victims stay partially
	// live, forcing relocation.
	for i := int64(0); i < f.Pages()/2; i++ {
		f.Write(((i*7)%livePages)*pageSz, pageSz)
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC never triggered")
	}
	if st.RelocatedPages == 0 {
		t.Fatal("GC triggered but never relocated live pages")
	}
	if wa := f.WriteAmplification(); wa <= 1 {
		t.Fatalf("write amplification %v, want > 1 with live relocation", wa)
	}
}

func TestWearLevelingPrefersLeastWorn(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	// Hammer a small region for several device lifetimes of the free pool.
	region := 2 * f.PageSize()
	for i := 0; i < int(f.Pages()); i++ {
		f.Write(0, region)
	}
	// With wear-aware allocation the spread between the most and least worn
	// superblocks stays small.
	max := f.MaxWear()
	if max == 0 {
		t.Fatal("no wear recorded")
	}
	var min int64 = 1 << 62
	for i := range f.sb {
		if int64(i) < f.preloaded {
			continue
		}
		if f.sb[i].wear < min {
			min = f.sb[i].wear
		}
	}
	if max-min > max/2+2 {
		t.Fatalf("wear spread too large: min %d max %d", min, max)
	}
}

func TestTrimInvalidates(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	f.Write(0, 8*f.PageSize())
	before := f.Stats()
	if ops := f.Erase(0, 8*f.PageSize()); ops != nil {
		t.Fatal("trim must not issue device ops under an FTL")
	}
	// Trimmed pages are unmapped: a subsequent read falls back to identity.
	got := f.Read(0, f.PageSize())[0].Loc
	if got != f.Locate(0) {
		t.Fatal("trim did not unmap")
	}
	_ = before
}

func TestLocateMatchesGeometryStriping(t *testing.T) {
	f := newSmall(t, nvm.MLC)
	geo := smallGeo()
	cell := nvm.Params(nvm.MLC)
	for lpn := int64(0); lpn < 64; lpn++ {
		if f.Locate(lpn) != geo.MapLogical(lpn, cell.Planes) {
			t.Fatalf("Locate(%d) diverges from geometry striping", lpn)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Stats {
		f := newSmall(t, nvm.SLC)
		f.Preload(f.CapacityBytes() / 4)
		for i := 0; i < 200; i++ {
			f.Write(int64(i%32)*f.PageSize(), f.PageSize())
		}
		return f.Stats()
	}
	if run() != run() {
		t.Fatal("FTL behaviour not deterministic")
	}
}

func TestTrimOfOverwrittenPreloadedPageRegression(t *testing.T) {
	// Regression: overwrite a preloaded identity page (invalidating its
	// identity slot), then trim the new copy, then trim the region again.
	// Before the dead-set fix the second trim decremented the preloaded
	// superblock's valid count a second time, driving it negative.
	f := newSmall(t, nvm.SLC)
	if err := f.Preload(f.CapacityBytes() / 4); err != nil {
		t.Fatal(err)
	}
	ps := f.PageSize()
	f.Write(0, ps) // invalidates identity slot 0
	f.Erase(0, ps) // trims the log copy; identity slot already dead
	f.Erase(0, ps) // must be a no-op for superblock 0's count
	if v := f.sb[0].valid; v < 0 {
		t.Fatalf("preloaded superblock valid count went negative: %d", v)
	}
	checkInvariants(t, f)
}

func TestRetireBlockRelocatesMappedPages(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ps := f.PageSize()
	// Write a few pages so the active superblock holds live mapped data.
	f.Write(0, 4*ps)
	victim := f.active
	ppn := victim * f.spb // first page of the active superblock
	r := f.RetireBlock(ppn)
	if !r.OK || !r.Retired {
		t.Fatalf("retire failed: %+v", r)
	}
	if !f.sb[victim].bad {
		t.Fatal("superblock not marked bad")
	}
	// The four pages must have been relocated: reads from the bad block plus
	// re-programs elsewhere.
	reads, progs := 0, 0
	for _, op := range r.Ops {
		switch op.Op {
		case nvm.OpRead:
			reads++
			if f.superOf(op.PPN) != victim {
				t.Fatal("relocation read outside the retired superblock")
			}
		case nvm.OpProgram:
			progs++
			if f.superOf(op.PPN) == victim {
				t.Fatal("relocation programmed back onto the retired superblock")
			}
		}
	}
	if reads != 4 || progs != 4 {
		t.Fatalf("relocation traffic: %d reads, %d programs, want 4/4", reads, progs)
	}
	// Reads of the data now resolve outside the retired superblock.
	for lpn := int64(0); lpn < 4; lpn++ {
		got := f.Read(lpn*ps, ps)[0].PPN
		if f.superOf(got) == victim {
			t.Fatalf("lpn %d still reads from retired superblock", lpn)
		}
	}
	checkInvariants(t, f)
}

func TestRetireBlockRelocatesPreloadedIdentityPages(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	if err := f.Preload(f.CapacityBytes() / 4); err != nil {
		t.Fatal(err)
	}
	// Retire the first preloaded superblock: every identity page is valid and
	// must be relocated into the log.
	r := f.RetireBlock(0)
	if !r.OK || !r.Retired {
		t.Fatalf("retire failed: %+v", r)
	}
	progs := 0
	for _, op := range r.Ops {
		if op.Op == nvm.OpProgram {
			progs++
		}
	}
	if int64(progs) != f.spb {
		t.Fatalf("relocated %d pages, want the full superblock %d", progs, f.spb)
	}
	// The preloaded data is now remapped, not identity.
	if got := f.Read(0, f.PageSize())[0].PPN; f.superOf(got) == 0 {
		t.Fatal("preloaded page still reads from retired superblock")
	}
	checkInvariants(t, f)
}

func TestRetireBlockIdempotentAndExhaustion(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	r1 := f.RetireBlock(0)
	if !r1.OK || !r1.Retired {
		t.Fatalf("first retire: %+v", r1)
	}
	// Same block again: already bad, nothing to do, still OK.
	r2 := f.RetireBlock(0)
	if !r2.OK || r2.Retired || r2.Ops != nil {
		t.Fatalf("second retire of same block: %+v", r2)
	}
	// Retire superblocks until the FTL refuses (no usable free space left).
	refused := false
	for sbi := int64(1); sbi < f.super; sbi++ {
		r := f.RetireBlock(sbi * f.spb)
		if !r.OK {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatal("FTL never refused retirement; free pool accounting broken")
	}
	checkInvariants(t, f)
}

func TestStatsReportGrownBad(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	before := f.Stats()
	f.RetireBlock(0)
	after := f.Stats()
	if after.GrownBadSuper != before.GrownBadSuper+1 {
		t.Fatalf("GrownBadSuper %d -> %d", before.GrownBadSuper, after.GrownBadSuper)
	}
	if after.FreeSuper != before.FreeSuper-1 {
		t.Fatalf("FreeSuper %d -> %d, want one fewer", before.FreeSuper, after.FreeSuper)
	}
}

// TestRetiredFreeSuperblocksLeaveThePool retires two superblocks while they
// sit in the free pool, then cycles a two-superblock working set through
// many log fills. A retired superblock must stop counting toward the GC
// reserve: when it still counted, GC stopped one collection early and
// allocation found the pool empty.
func TestRetiredFreeSuperblocksLeaveThePool(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	for _, sbi := range []int64{6, 7} {
		if r := f.RetireBlock(sbi * f.spb); !r.OK || !r.Retired {
			t.Fatalf("retire free superblock %d: %+v", sbi, r)
		}
	}
	ps := f.PageSize()
	live := 2 * f.spb
	for i := int64(0); i < 12*f.spb; i++ {
		checkOps(t, f, f.Write((i%live)*ps, ps))
	}
	checkInvariants(t, f)
	if st := f.Stats(); st.GCRuns == 0 || st.FreeSuper < 1 {
		t.Fatalf("stats after %d fills: %+v", 12, st)
	}
}

// TestRetireBlockKeepsRelocationRoom fills the log until one free
// superblock is left, with live data spread over every sealed superblock,
// then asks to retire that last free superblock. Live data would still fit
// the survivors, but GC's next collection would need a superblock to
// relocate into and find none, so the FTL must refuse.
func TestRetireBlockKeepsRelocationRoom(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ps := f.PageSize()
	live := 4 * f.spb
	f.Write(0, live*ps)
	for i := int64(0); f.usableFree() > 1 || f.writePtr == 0; i++ {
		f.Write(((i*7)%live)*ps, ps)
	}
	last := int64(-1)
	for i := range f.sb {
		if f.sb[i].free {
			last = int64(i)
		}
	}
	if r := f.RetireBlock(last * f.spb); r.OK {
		t.Fatalf("retired the last free superblock: %+v", r)
	}
	for i := int64(0); i < 4*f.spb; i++ {
		checkOps(t, f, f.Write(((i*7)%live)*ps, ps))
	}
	checkInvariants(t, f)
}

// TestWriteAmplificationMatchesStats pins WriteAmplification to the ratio
// the Stats doc promises, NANDWrites/HostWrites, after GC has relocated
// live pages (relocations are already NAND writes; counting them again
// overstated the ratio).
func TestWriteAmplificationMatchesStats(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ps := f.PageSize()
	live := f.Pages() * 3 / 4
	f.Write(0, live*ps)
	for i := int64(0); i < f.Pages()/2; i++ {
		f.Write(((i*7)%live)*ps, ps)
	}
	st := f.Stats()
	if st.RelocatedPages == 0 {
		t.Fatal("GC never relocated live pages")
	}
	if got, want := f.WriteAmplification(), float64(st.NANDWrites)/float64(st.HostWrites); got != want {
		t.Fatalf("WriteAmplification %v, want NANDWrites/HostWrites %v", got, want)
	}
}

// TestNewPreloadAllocs pins the per-cell construction cost at paper
// geometry: the superblock table is the free pool, so New plus a 96 MiB
// Preload allocates a handful of objects (the struct and the table), not
// one per superblock; the page tables allocate nothing until a first store.
func TestNewPreloadAllocs(t *testing.T) {
	for _, cell := range []nvm.CellType{nvm.SLC, nvm.MLC, nvm.TLC, nvm.PCM} {
		allocs := testing.AllocsPerRun(5, func() {
			f, err := New(nvm.PaperGeometry(), nvm.Params(cell), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Preload(96 << 20); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("%v: New+Preload allocates %.0f objects, want <= 8", cell, allocs)
		}
		t.Logf("%v: %.0f allocs", cell, allocs)
	}
}
