// Package ftl implements the flash translation layer that conventional
// file-system configurations run on top of (paper Figure 4a). It provides
// page-granular logical-to-physical mapping, log-structured writes striped
// over all channels/planes/dies in superblock units, greedy garbage
// collection with valid-page relocation, and wear-aware free-block selection.
//
// UFS configurations bypass this layer entirely (Figure 4b): "UFS can be
// seen to both replace existing file systems but also, and more importantly,
// the underlying FTL of the SSD."
package ftl

import (
	"errors"
	"fmt"

	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/pool"
	"oocnvm/internal/sim"
)

// FTL is a page-mapped translation layer over one device's geometry.
type FTL struct {
	geo   nvm.Geometry
	cell  nvm.CellParams
	rowsz int64 // pages per "row": Channels * Planes * DiesPerChannel
	ppb   int64 // pages per eraseblock
	spb   int64 // pages per superblock: rowsz * ppb
	super int64 // number of superblocks

	l2p pageTable // overrides; absent means identity (preloaded layout)
	p2l pageTable // reverse map for relocation
	// dead marks preloaded-region identity slots that are no longer valid
	// (overwritten or trimmed). Without it a trim of an overwritten
	// preloaded page would double-decrement the superblock's valid count,
	// and retirement could relocate stale identity data. A set: stored
	// values are 0.
	dead pageTable

	// sb is the superblock table and the only record of the free pool: a
	// superblock is allocatable exactly when its free flag is set.
	sb        []superblock
	active    int64 // currently filling superblock, -1 if none
	writePtr  int64 // next page slot within the active superblock
	inGC      bool  // guards against reentrant garbage collection
	preloaded int64 // superblocks occupied by preloaded, identity-mapped data

	// Statistics.
	gcRuns     int64
	relocated  int64
	hostWrites int64
	nandWrites int64
	grownBad   int64

	// Durable-metadata model (nil when Config.Durable is off): journal
	// and checkpoint bookkeeping, the simulated media state, and the
	// degraded read-only latch mount-time recovery sets when metadata is
	// unrecoverable.
	dur      *durState
	media    *Media
	readOnly bool

	probe obs.Probe
	tap   nvm.MappingTap

	// opPool, when the drive attaches one, recycles the page-op slices the
	// host-facing translations (Read/Write/Erase) return. opRef is the live
	// borrow: the drive is a single goroutine with one outstanding
	// translation at a time, borrowed here and released by ReleaseOps once
	// the request's scheduling is complete. Cold paths (RetireBlock) keep
	// allocating their own slices.
	opPool *pool.Buffers[nvm.PageOp]
	opRef  pool.Ref[nvm.PageOp]
}

// SetOpPool attaches the drive's per-instance page-op free list. Nil leaves
// translations allocating fresh slices (the behavior outside a drive).
func (f *FTL) SetOpPool(p *pool.Buffers[nvm.PageOp]) { f.opPool = p }

// takeOps returns the slice a host-facing translation builds into: a pooled
// borrow when the drive attached a free list, a fresh allocation otherwise.
func (f *FTL) takeOps(hint int) []nvm.PageOp {
	if f.opPool == nil {
		return make([]nvm.PageOp, 0, hint)
	}
	f.opRef = f.opPool.Get(hint)
	return f.opRef.Slice()
}

// ReleaseOps returns a translation's page-op slice to the drive's pool; the
// slice (and any aliases) must not be touched afterwards. Slices that were
// never borrowed — nil translations, cold-path allocations — are ignored.
func (f *FTL) ReleaseOps(ops []nvm.PageOp) {
	if f.opPool == nil || !f.opRef.Valid() {
		return
	}
	f.opPool.Put(f.opRef, ops)
	f.opRef = pool.Ref[nvm.PageOp]{}
}

// SetProbe attaches an observability probe: map-lookup and GC counters, and
// the erase-amplification inputs (host vs NAND writes, relocations).
func (f *FTL) SetProbe(p obs.Probe) { f.probe = obs.OrNop(p) }

// SetMappingTap attaches a conformance tap observing every placement,
// lookup and trim this FTL performs. Nil detaches.
func (f *FTL) SetMappingTap(t nvm.MappingTap) { f.tap = t }

type superblock struct {
	valid  int64
	wear   int64
	sealed bool
	free   bool // in the free pool; implies !bad (retirement clears it)
	// bad marks a grown-bad superblock: retired from circulation after a
	// program or erase failure, never allocated or collected again.
	bad bool
}

// reserveSuperblocks is the free-pool low-water mark that triggers GC.
const reserveSuperblocks = 2

// Config tunes the FTL.
type Config struct {
	// Durable enables the crash-consistent metadata model: per-page OOB
	// tags, an L2P delta journal and periodic mapping-table checkpoints.
	Durable DurableConfig
}

// errTooManyPages rejects a geometry whose page numbers overflow the page
// table's int32 entries.
var errTooManyPages = errors.New("ftl: geometry exceeds the page table's range")

// New creates an FTL over the given geometry and medium.
func New(geo nvm.Geometry, cell nvm.CellParams, cfg Config) (*FTL, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	f := &FTL{
		geo:    geo,
		cell:   cell,
		rowsz:  int64(geo.Channels * cell.Planes * geo.DiesPerChannel()),
		ppb:    int64(cell.PagesPerBlock),
		super:  int64(geo.BlocksPerPlane),
		active: -1,
		probe:  obs.Nop{},
	}
	f.spb = f.rowsz * f.ppb
	if f.Pages() > maxEntry {
		return nil, fmt.Errorf("%w: %d pages, at most %d", errTooManyPages, f.Pages(), int64(maxEntry))
	}
	f.sb = make([]superblock, f.super)
	for i := range f.sb {
		f.sb[i].free = true
	}
	if cfg.Durable.Enabled {
		d := cfg.Durable
		if d.CheckpointEveryPages <= 0 {
			d.CheckpointEveryPages = 4 * f.spb
		}
		if d.JournalEntriesPerPage <= 0 {
			d.JournalEntriesPerPage = int(cell.PageSize / 16)
		}
		if d.JournalEntriesPerPage <= 0 {
			d.JournalEntriesPerPage = 16
		}
		f.dur = &durState{
			cfg:       d,
			ver:       make(map[int64]uint64),
			perPage:   d.JournalEntriesPerPage,
			ckptEvery: d.CheckpointEveryPages,
		}
		f.media = newMedia(f.Pages(), f.spb, f.rowsz, f.ppb)
	}
	return f, nil
}

// Pages reports the device's total page population.
func (f *FTL) Pages() int64 { return f.super * f.spb }

// CapacityBytes reports the device's raw capacity.
func (f *FTL) CapacityBytes() int64 { return f.Pages() * f.cell.PageSize }

// PageSize reports the translation granularity.
func (f *FTL) PageSize() int64 { return f.cell.PageSize }

// Locate maps a physical page number to its resources. Pages stripe
// channel-first, plane-second, die-third within a "row"; ppb consecutive
// rows of one die-plane form an eraseblock, and the eraseblocks of one row
// group across all die-planes form a superblock.
func (f *FTL) Locate(ppn int64) nvm.Location {
	return f.geo.MapLogical(ppn, f.cell.Planes)
}

func (f *FTL) superOf(ppn int64) int64 { return ppn / f.spb }

// Preload marks the first `bytes` of the logical space as resident,
// identity-mapped, fully valid data (the OoC dataset staged onto the SSD
// before computation). It returns an error if the data exceeds capacity
// minus the GC reserve.
func (f *FTL) Preload(bytes int64) error {
	pages := (bytes + f.cell.PageSize - 1) / f.cell.PageSize
	supers := (pages + f.spb - 1) / f.spb
	if supers > f.super-reserveSuperblocks {
		return fmt.Errorf("ftl: preload of %d bytes needs %d superblocks, only %d available",
			bytes, supers, f.super-reserveSuperblocks)
	}
	for i := int64(0); i < supers; i++ {
		f.sb[i] = superblock{valid: f.spb, sealed: true}
	}
	f.preloaded = supers
	if f.dur != nil {
		// The identity-mapped dataset is durable content: version 0 pages
		// at their identity locations, plus a genesis journal record so a
		// crash before the first checkpoint still recovers the preload
		// extent. Preload runs before the device exists, so the genesis
		// page commits directly rather than riding a request.
		for p := int64(0); p < supers*f.spb; p++ {
			f.media.data[p] = OOB{LPN: p, Ver: 0}
		}
		f.media.commitDirect(metaPage{Kind: metaJournal,
			Recs: []rec{{Kind: recPreload, A: supers}}})
		f.dur.journalPages++
	}
	return nil
}

// liveIdentity reports whether lpn's preloaded identity slot still holds
// live data: inside the preloaded extent, neither overwritten nor trimmed.
func (f *FTL) liveIdentity(lpn int64) bool {
	return lpn < f.preloaded*f.spb && !f.dead.has(lpn)
}

// dropIdentity invalidates lpn's live identity slot. The dead mark makes
// this happen at most once per slot, so a later trim cannot drive the
// superblock's valid count negative.
func (f *FTL) dropIdentity(lpn int64) {
	f.sb[f.superOf(lpn)].valid--
	f.dead.set(lpn, 0)
}

// lookup returns the physical page currently holding lpn.
func (f *FTL) lookup(lpn int64) int64 {
	f.probe.Count("ftl.map.lookups", 1)
	if ppn, ok := f.l2p.get(lpn); ok {
		f.probe.Count("ftl.map.remapped", 1)
		return ppn
	}
	return lpn // identity: preloaded layout
}

// Read translates a byte-addressed read into page operations.
func (f *FTL) Read(offset, size int64) []nvm.PageOp {
	first := offset / f.cell.PageSize
	last := (offset + size - 1) / f.cell.PageSize
	if size <= 0 {
		return nil
	}
	ops := f.takeOps(int(last - first + 1))
	total := f.Pages()
	var (
		prev int64
		loc  nvm.Location
	)
	for lpn := first; lpn <= last; lpn++ {
		ppn := f.lookup(lpn) % total
		if f.tap != nil {
			f.tap.MapRead(lpn, ppn)
		}
		// A run of consecutive physical pages steps its location; the
		// first page, a remapped page and the wrap to page 0 translate.
		if lpn > first && ppn == prev+1 {
			loc = f.geo.NextLogical(loc, f.cell.Planes)
		} else {
			loc = f.Locate(ppn)
		}
		prev = ppn
		ops = append(ops, nvm.PageOp{Op: nvm.OpRead, Loc: loc, PPN: ppn})
	}
	return ops
}

// Write translates a byte-addressed write into page programs, appending to
// the active superblock. The returned slice may also contain relocation
// reads/programs and erases when garbage collection was required.
func (f *FTL) Write(offset, size int64) []nvm.PageOp {
	if size <= 0 {
		return nil
	}
	first := offset / f.cell.PageSize
	last := (offset + size - 1) / f.cell.PageSize
	// A due checkpoint rides ahead of the write that triggered it, so the
	// journal the snapshot supersedes is already flushed and bounded.
	ops := f.maybeCheckpoint(f.takeOps(int(last - first + 1)))
	for lpn := first; lpn <= last; lpn++ {
		f.hostWrites++
		ops = f.program(ops, lpn, true)
	}
	f.probe.Count("ftl.host_writes", last-first+1)
	return ops
}

// program appends one logical page to the log, running GC first if the free
// pool is exhausted, appending the emitted device operations to ops. host
// marks a host write (bumping the page's durable version), as opposed to a
// GC or retirement relocation (which moves the existing version).
func (f *FTL) program(ops []nvm.PageOp, lpn int64, host bool) []nvm.PageOp {
	if f.active < 0 || f.writePtr >= f.spb {
		if f.active >= 0 {
			f.sb[f.active].sealed = true
			ops = f.appendRec(ops, rec{Kind: recSeal, A: f.active})
		}
		ops = f.maybeGC(ops)
		// GC relocation re-enters program and may already have opened (and
		// partially filled) a fresh superblock; allocating unconditionally
		// here would abandon it mid-fill and strand its valid pages.
		if f.active < 0 || f.writePtr >= f.spb {
			f.active = f.allocSuperblock()
			f.writePtr = 0
			// Every allocation flushes the journal with its alloc record
			// aboard: the newest replayable alloc then always designates
			// the true open superblock, confining unflushed placements to
			// the one superblock recovery scans by OOB tag.
			if f.dur != nil {
				f.dur.buf = append(f.dur.buf, rec{Kind: recAlloc, A: f.active})
				ops = f.flushJournal(ops)
			}
		}
	}
	// Invalidate the previous version.
	old, had := f.l2p.get(lpn)
	if had {
		f.sb[f.superOf(old)].valid--
		f.p2l.del(old)
	} else if f.liveIdentity(lpn) {
		f.dropIdentity(lpn) // overwriting identity-mapped preloaded data
	}
	ppn := f.active*f.spb + f.writePtr
	f.writePtr++
	f.l2p.set(lpn, ppn)
	f.p2l.set(ppn, lpn)
	if f.tap != nil {
		f.tap.MapWrite(lpn, ppn)
	}
	f.sb[f.active].valid++
	f.nandWrites++
	f.probe.Count("ftl.nand_writes", 1)
	var ver uint64
	if f.dur != nil {
		if host {
			f.dur.ver[lpn]++
			f.dur.sinceCkpt++
		}
		ver = f.dur.ver[lpn]
		ops = f.appendRec(ops, rec{Kind: recPlace, A: lpn, B: ppn, V: ver})
	}
	ops = append(ops, nvm.PageOp{Op: nvm.OpProgram, Loc: f.Locate(ppn), PPN: ppn, LPN: lpn, Ver: ver})
	return ops
}

// allocSuperblock takes the free superblock with the least wear, ties to
// the lowest id (wear leveling). RetireBlock refuses any retirement that
// would leave GC unable to keep a superblock free, so an empty pool here is
// a bug, not a device condition.
func (f *FTL) allocSuperblock() int64 {
	best := int64(-1)
	for i := range f.sb {
		if f.sb[i].free && (best < 0 || f.sb[i].wear < f.sb[best].wear) {
			best = int64(i)
		}
	}
	if best < 0 {
		panic("ftl: free pool exhausted despite GC reserve")
	}
	f.sb[best].free = false
	f.sb[best].sealed = false
	f.sb[best].valid = 0
	return best
}

// maybeGC reclaims sealed superblocks until the free pool meets the reserve.
// It refuses to run reentrantly: collect's relocation programs call back
// into program, and a nested GC round could pick a victim an outer round is
// still collecting — the victim would be freed twice and later be the
// active log twice, overwriting live pages.
func (f *FTL) maybeGC(ops []nvm.PageOp) []nvm.PageOp {
	if f.inGC {
		return ops
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	for f.usableFree() < reserveSuperblocks {
		victim := f.pickVictim()
		if victim < 0 {
			break // nothing reclaimable
		}
		ops = f.collect(ops, victim)
	}
	return ops
}

// pickVictim chooses the sealed superblock with the fewest valid pages
// (greedy GC). Preloaded superblocks compete like any other: their valid
// count drops as the host overwrites or trims the identity-mapped dataset.
func (f *FTL) pickVictim() int64 {
	best := int64(-1)
	bestValid := f.spb + 1
	for i := int64(0); i < f.super; i++ {
		s := &f.sb[i]
		if s.free || s.bad || !s.sealed || i == f.active {
			continue
		}
		if s.valid < bestValid && s.valid < f.spb {
			// A fully-valid victim reclaims nothing: collecting it only
			// copies the superblock elsewhere, and GC would loop on such
			// victims forever once grown-bad blocks eat the slack.
			bestValid = s.valid
			best = i
		}
	}
	return best
}

// collect relocates a victim's valid pages into the log and erases it,
// appending the traffic to ops.
func (f *FTL) collect(ops []nvm.PageOp, victim int64) []nvm.PageOp {
	f.gcRuns++
	f.probe.Count("ftl.gc.runs", 1)
	relocatedBefore := f.relocated
	start := len(ops)
	base := victim * f.spb
	for p := base; p < base+f.spb; p++ {
		// Re-programs go through the normal path, which cannot recurse
		// into GC here (maybeGC guards against reentry).
		ops, _ = f.relocatePage(ops, p)
	}
	// Erase every eraseblock of the superblock: one per die-plane.
	for r := int64(0); r < f.rowsz; r++ {
		ops = append(ops, nvm.PageOp{Op: nvm.OpErase, Loc: f.Locate(base + r), PPN: base + r})
	}
	f.sb[victim].wear++
	f.sb[victim].free = true
	f.sb[victim].sealed = false
	ops = f.appendRec(ops, rec{Kind: recErase, A: victim, V: uint64(f.sb[victim].wear)})
	f.probe.Count("ftl.gc.relocated_pages", f.relocated-relocatedBefore)
	f.probe.Count("ftl.gc.erases", f.rowsz)
	// Everything this collection emitted — relocation reads, the programs
	// they re-entered through the normal log path (program cannot recurse
	// into GC here), and the victim erases — is garbage-collection traffic;
	// latency attribution charges an all-GC activation to the GC component.
	for i := start; i < len(ops); i++ {
		ops[i].GC = true
	}
	return ops
}

// Stats reports FTL activity counters.
type Stats struct {
	GCRuns         int64
	RelocatedPages int64
	HostWrites     int64
	NANDWrites     int64
	FreeSuper      int
	GrownBadSuper  int64
	// Durable-metadata traffic (zero when the model is off): journal
	// delta pages, checkpoint pages, and checkpoint runs.
	JournalPages int64
	CkptPages    int64
	CkptRuns     int64
}

// Stats snapshots the counters. Write amplification is
// NANDWrites/HostWrites when HostWrites > 0.
func (f *FTL) Stats() Stats {
	s := Stats{
		GCRuns:         f.gcRuns,
		RelocatedPages: f.relocated,
		HostWrites:     f.hostWrites,
		NANDWrites:     f.nandWrites,
		FreeSuper:      f.usableFree(),
		GrownBadSuper:  f.grownBad,
	}
	if f.dur != nil {
		s.JournalPages = f.dur.journalPages
		s.CkptPages = f.dur.ckptPages
		s.CkptRuns = f.dur.ckptRuns
	}
	return s
}

// RegisterSeries registers the FTL's time-resolved telemetry: GC runs and
// relocated pages per interval, plus the running write amplification and the
// free-pool depth as instantaneous gauges.
func (f *FTL) RegisterSeries(ts *timeseries.Sampler) {
	ts.AddDelta("ftl.gc_runs", func(sim.Time) float64 { return float64(f.gcRuns) })
	ts.AddDelta("ftl.gc_relocated_pages", func(sim.Time) float64 { return float64(f.relocated) })
	ts.AddGauge("ftl.write_amplification", func(sim.Time) float64 { return f.WriteAmplification() })
	ts.AddGauge("ftl.free_superblocks", func(sim.Time) float64 { return float64(f.usableFree()) })
	// Durable-metadata series register only when the model is on, keeping
	// reports byte-identical for volatile configurations.
	if f.dur != nil {
		ts.AddDelta("ftl.journal_pages", func(sim.Time) float64 { return float64(f.dur.journalPages) })
		ts.AddDelta("ftl.ckpt_pages", func(sim.Time) float64 { return float64(f.dur.ckptPages) })
	}
}

// usableFree counts the superblocks in the free pool.
func (f *FTL) usableFree() int {
	n := 0
	for i := range f.sb {
		if f.sb[i].free {
			n++
		}
	}
	return n
}

// RetireBlock implements grown-bad-block handling for the ssd controller:
// the superblock containing the failed physical page is retired from
// circulation (the superblock is this FTL's allocation and erase unit), its
// still-valid pages — mapped or preloaded-identity — are relocated into the
// log, and the mapping is updated so subsequent reads find the moved data.
// OK is false when the surviving superblocks could not absorb the victim's
// data, which the controller must treat as the end of the device's writable
// life.
func (f *FTL) RetireBlock(ppn int64) nvm.Retirement {
	v := f.superOf(ppn % f.Pages())
	s := &f.sb[v]
	if s.bad {
		return nvm.Retirement{OK: true}
	}
	// Refusing either capacity test keeps allocSuperblock from ever meeting
	// an empty pool. Now: room (the free pool other than the victim, plus
	// the active superblock's unwritten tail unless that is the victim)
	// must hold the victim's valid pages plus a superblock of slack, so the
	// log can still cycle after the relocation. Later: every live page must
	// fit in the survivors less the GC reserve, so whenever GC runs some
	// sealed superblock holds garbage; otherwise GC finds only fully-valid
	// victims and the pool drains mid-relocation.
	room, live, usable := int64(0), int64(0), int64(0)
	for i := range f.sb {
		t := &f.sb[i]
		if t.bad {
			continue
		}
		live += t.valid
		if int64(i) == v {
			continue
		}
		usable++
		if t.free {
			room += f.spb
		}
	}
	if f.active >= 0 && v != f.active {
		room += f.spb - f.writePtr
	}
	if s.valid+f.spb > room || live > (usable-reserveSuperblocks)*f.spb {
		return nvm.Retirement{}
	}
	f.grownBad++
	f.probe.Count("ftl.grown_bad_superblocks", 1)
	if v == f.active {
		f.active = -1
		f.writePtr = 0
	}
	s.bad = true
	s.free = false
	s.sealed = true
	// Retirement is a cold path: it builds its own slice rather than
	// borrowing the translation pool, which may already be lent out to the
	// request whose failure triggered this retirement.
	var ops []nvm.PageOp
	// The grown-bad verdict flushes immediately: recovery must never
	// allocate from (or scan garbage in) a superblock that failed.
	if f.dur != nil {
		f.dur.buf = append(f.dur.buf, rec{Kind: recRetire, A: v})
		ops = f.flushJournal(ops)
	}
	base := v * f.spb
	for p := base; p < base+f.spb; p++ {
		var moved bool
		if ops, moved = f.relocatePage(ops, p); moved {
			f.probe.Count("ftl.retire.relocated_pages", 1)
		}
	}
	return nvm.Retirement{Ops: ops, Retired: true, OK: true}
}

// relocatePage moves the valid page at physical slot p, if there is one,
// into the log: it appends the read of p and the re-program of its logical
// page to ops and reports whether p held valid data. A slot is valid when
// it is mapped, or when it still holds live identity-mapped preloaded data
// (neither overwritten nor trimmed). GC and block retirement share this
// walk, so a preloaded superblock is reclaimable like any other.
func (f *FTL) relocatePage(ops []nvm.PageOp, p int64) ([]nvm.PageOp, bool) {
	lpn, mapped := f.p2l.get(p)
	if !mapped {
		if !f.liveIdentity(p) {
			return ops, false
		}
		lpn = p
	}
	ops = append(ops, nvm.PageOp{Op: nvm.OpRead, Loc: f.Locate(p), PPN: p})
	f.relocated++
	if mapped {
		f.p2l.del(p)
		f.l2p.del(lpn)
		f.sb[f.superOf(p)].valid--
	}
	// program() invalidates a preloaded identity slot itself (marking it
	// dead) and appends the new copy to the log.
	return f.program(ops, lpn, false), true
}

// WriteAmplification returns NAND writes per host write (1.0 = none).
// NAND writes already include every relocation and metadata page.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 0
	}
	return float64(f.nandWrites) / float64(f.hostWrites)
}

// MaxWear returns the highest superblock erase count.
func (f *FTL) MaxWear() int64 {
	var m int64
	for i := range f.sb {
		if f.sb[i].wear > m {
			m = f.sb[i].wear
		}
	}
	return m
}
