// Package ssd assembles a complete solid-state drive from the substrate
// packages: an nvm.Device (channels, dies, cell timings), a translation
// layer (the conventional FTL or UFS's direct mapping), a host queue of
// bounded depth, and the host-side link. Its Replay method drives a captured
// block trace through the stack and reports the measurements the paper's
// evaluation charts are built from.
package ssd

import (
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"

	"oocnvm/internal/fault"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/pool"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// ErrOutOfRange is returned (wrapped) by Submit for block operations that
// reach beyond the translator's capacity instead of silently wrapping them
// onto unrelated pages.
var ErrOutOfRange = errors.New("ssd: request outside device capacity")

// Translator maps byte-addressed block operations to NVM page operations.
type Translator interface {
	Read(offset, size int64) []nvm.PageOp
	Write(offset, size int64) []nvm.PageOp
	Erase(offset, size int64) []nvm.PageOp
	PageSize() int64
	CapacityBytes() int64
}

// BlockRetirer is implemented by translators that can retire a grown-bad
// block and relocate its still-valid data (the FTL, and Direct via its
// bad-block remap table). The controller calls it when the fault injector
// reports a program or erase failure.
type BlockRetirer interface {
	RetireBlock(ppn int64) nvm.Retirement
}

// OpPooler is implemented by translators that can borrow the page-op slices
// their host-facing translations return from a per-drive free list. The
// drive attaches its pool at construction and releases each translation's
// slice once the request's scheduling is complete; the requests are strictly
// serial (one goroutine per drive, single outstanding translation), so at
// most one borrow is live at a time.
type OpPooler interface {
	SetOpPool(p *pool.Buffers[nvm.PageOp])
	ReleaseOps(ops []nvm.PageOp)
}

// DirectSpareBlocks is the eraseblock count Direct reserves at the top of
// the address space as grown-bad replacements. The effective degradation
// policy is the fault injector's (usually smaller) spare budget; this bound
// only stops the remap table from growing without limit.
const DirectSpareBlocks = 64

// Direct is UFS's translation: identity page-striped mapping with no
// remapping layer — except for grown-bad blocks, which are remapped onto
// spare eraseblocks reserved at the top of the address space so the UFS
// path gets the same bad-block indirection the FTL path has. The host (UFS)
// is responsible for erase-before-write; the device executes exactly what
// it is told.
type Direct struct {
	Geo  nvm.Geometry
	Cell nvm.CellParams

	remap     map[int64]int64 // logical eraseblock -> replacement block
	bad       map[int64]bool  // physically retired blocks
	nextSpare int64           // next spare block id, counting down

	tap nvm.MappingTap

	// opPool recycles translation slices when the drive attaches its free
	// list; opRef is the (single) live borrow. See OpPooler.
	opPool *pool.Buffers[nvm.PageOp]
	opRef  pool.Ref[nvm.PageOp]
}

// SetOpPool implements OpPooler: subsequent translations borrow their slices
// from the drive's free list.
func (d *Direct) SetOpPool(p *pool.Buffers[nvm.PageOp]) { d.opPool = p }

// takeOps returns the slice a translation builds into: a pooled borrow when
// the drive attached a free list, a fresh allocation otherwise.
func (d *Direct) takeOps(hint int) []nvm.PageOp {
	if d.opPool == nil {
		return make([]nvm.PageOp, 0, hint)
	}
	d.opRef = d.opPool.Get(hint)
	return d.opRef.Slice()
}

// ReleaseOps implements OpPooler: the translation slice (and any aliases)
// must not be touched after release. Never-borrowed slices are ignored.
func (d *Direct) ReleaseOps(ops []nvm.PageOp) {
	if d.opPool == nil || !d.opRef.Valid() {
		return
	}
	d.opPool.Put(d.opRef, ops)
	d.opRef = pool.Ref[nvm.PageOp]{}
}

// SetMappingTap attaches a conformance tap observing every translation this
// Direct mapping serves, including bad-block redirections. Nil detaches.
func (d *Direct) SetMappingTap(t nvm.MappingTap) { d.tap = t }

// NewDirect builds the identity translator with an empty bad-block remap.
func NewDirect(geo nvm.Geometry, cell nvm.CellParams) *Direct {
	d := &Direct{
		Geo:   geo,
		Cell:  cell,
		remap: make(map[int64]int64),
		bad:   make(map[int64]bool),
	}
	d.nextSpare = d.totalBlocks() - 1
	return d
}

// PageSize returns the interface page size.
func (d *Direct) PageSize() int64 { return d.Cell.PageSize }

// CapacityBytes returns the raw capacity.
func (d *Direct) CapacityBytes() int64 { return d.Geo.Capacity(d.Cell) }

func (d *Direct) pages() int64 { return d.Geo.Pages(d.Cell) }

// rowSize is the number of die-planes pages stripe over.
func (d *Direct) rowSize() int64 {
	return int64(d.Geo.Channels * d.Cell.Planes * d.Geo.DiesPerChannel())
}

func (d *Direct) totalBlocks() int64 { return d.rowSize() * int64(d.Geo.BlocksPerPlane) }

// pageIn returns the k-th page of an eraseblock.
func (d *Direct) pageIn(block, k int64) int64 {
	row := d.rowSize()
	ppb := int64(d.Cell.PagesPerBlock)
	return ((block/row)*ppb+k)*row + block%row
}

// redirect applies the bad-block remap to one physical page number.
func (d *Direct) redirect(ppn int64) int64 {
	if len(d.remap) == 0 {
		return ppn
	}
	b := d.Geo.EraseBlock(ppn, d.Cell)
	nb, ok := d.remap[b]
	if !ok {
		return ppn
	}
	row := d.rowSize()
	k := (ppn / row) % int64(d.Cell.PagesPerBlock)
	return d.pageIn(nb, k)
}

func (d *Direct) mapRange(op nvm.Op, offset, size int64) []nvm.PageOp {
	if size <= 0 {
		return nil
	}
	first := offset / d.Cell.PageSize
	last := (offset + size - 1) / d.Cell.PageSize
	total := d.pages()
	ops := d.takeOps(int(last - first + 1))
	var (
		prev int64
		loc  nvm.Location
	)
	for lpn, wrapped := first, first%total; lpn <= last; lpn++ {
		ppn := d.redirect(wrapped)
		if d.tap != nil {
			if op == nvm.OpProgram {
				d.tap.MapWrite(wrapped, ppn)
			} else {
				d.tap.MapRead(wrapped, ppn)
			}
		}
		// A run of consecutive physical pages steps its location; the
		// first page, a redirected page and the wrap to page 0 translate.
		if lpn > first && ppn == prev+1 {
			loc = d.Geo.NextLogical(loc, d.Cell.Planes)
		} else {
			loc = d.Geo.MapLogical(ppn, d.Cell.Planes)
		}
		prev = ppn
		ops = append(ops, nvm.PageOp{Op: op, Loc: loc, PPN: ppn})
		if wrapped++; wrapped == total {
			wrapped = 0
		}
	}
	return ops
}

// Read maps a read through identity striping.
func (d *Direct) Read(offset, size int64) []nvm.PageOp {
	return d.mapRange(nvm.OpRead, offset, size)
}

// Write maps a write through identity striping.
func (d *Direct) Write(offset, size int64) []nvm.PageOp {
	return d.mapRange(nvm.OpProgram, offset, size)
}

// Erase issues one block erase per eraseblock overlapping the range.
func (d *Direct) Erase(offset, size int64) []nvm.PageOp {
	if size <= 0 {
		size = d.Cell.BlockSize()
	}
	total := d.pages()
	blockBytes := d.Cell.BlockSize()
	first := offset / blockBytes
	last := (offset + size - 1) / blockBytes
	ops := d.takeOps(int(last - first + 1))
	ppb := int64(d.Cell.PagesPerBlock)
	for b := first; b <= last; b++ {
		// Identify the die-plane owning this block via its first page.
		ppn := d.redirect((b * ppb) % total)
		if d.tap != nil {
			for k := int64(0); k < ppb; k++ {
				d.tap.MapTrim((b*ppb + k) % total)
			}
		}
		ops = append(ops, nvm.PageOp{Op: nvm.OpErase, Loc: d.Geo.MapLogical(ppn, d.Cell.Planes), PPN: ppn})
	}
	return ops
}

// RetireBlock remaps the grown-bad eraseblock containing ppn onto a spare
// from the reserved top-of-device region and returns the copy-out traffic
// (the whole block: with no mapping layer Direct cannot tell valid pages
// from stale ones). OK is false once the spare region is exhausted.
func (d *Direct) RetireBlock(ppn int64) nvm.Retirement {
	if d.remap == nil {
		// Zero-value Direct (no NewDirect): no remap capability.
		return nvm.Retirement{}
	}
	b := d.Geo.EraseBlock(ppn%d.pages(), d.Cell)
	if d.bad[b] {
		return nvm.Retirement{OK: true}
	}
	if d.nextSpare < d.totalBlocks()-DirectSpareBlocks || d.nextSpare < 0 {
		return nvm.Retirement{}
	}
	spare := d.nextSpare
	d.nextSpare--
	d.bad[b] = true
	// If b was itself a replacement, point its logical source at the new
	// spare; otherwise b is the logical block.
	src := b
	for logical, phys := range d.remap {
		if phys == b {
			src = logical
			break
		}
	}
	d.remap[src] = spare
	ppb := int64(d.Cell.PagesPerBlock)
	ops := make([]nvm.PageOp, 0, 2*ppb)
	for k := int64(0); k < ppb; k++ {
		from, to := d.pageIn(b, k), d.pageIn(spare, k)
		if d.tap != nil {
			// The block's logical pages are the identity pages of src.
			d.tap.MapWrite(d.pageIn(src, k), to)
		}
		ops = append(ops,
			nvm.PageOp{Op: nvm.OpRead, Loc: d.Geo.MapLogical(from, d.Cell.Planes), PPN: from},
			nvm.PageOp{Op: nvm.OpProgram, Loc: d.Geo.MapLogical(to, d.Cell.Planes), PPN: to})
	}
	return nvm.Retirement{Ops: ops, Retired: true, OK: true}
}

// Config assembles an SSD.
type Config struct {
	Geometry   nvm.Geometry
	Cell       nvm.CellParams
	Bus        nvm.BusParams
	Link       nvm.Link
	Translator Translator
	// QueueDepth bounds concurrently outstanding block requests (NCQ-style).
	QueueDepth int
	// WindowBytes bounds in-flight data (the host readahead window). Zero
	// means unlimited (bounded by QueueDepth only).
	WindowBytes int64
	// CacheMode enables the dies' dual-register cache operation.
	CacheMode bool
	Seed      uint64
	// Probe receives per-request spans and latency observations. Nil means
	// observability off (a no-op probe, free on the hot path).
	Probe obs.Probe
	// Fault injects bit errors and program/erase failures at the media layer.
	// Nil (or a disabled injector) leaves the legacy fault-free path exactly
	// as it was, including its RNG draw sequence.
	Fault *fault.Injector
	// Sampler, when non-nil, records time-resolved telemetry: the drive
	// advances it as the simulated clock moves and registers the whole
	// stack's series on it (device utilization, queue depth, FTL GC, link
	// occupancy, fault deltas). Nil means sampling off, with zero overhead.
	Sampler *timeseries.Sampler
	// Attrib, when non-nil, records every request's latency anatomy: the
	// per-component decomposition (queue, link, bus, die, GC, recovery)
	// that provably sums to the end-to-end latency, plus top-K slow-request
	// exemplars. Nil means attribution off, with zero overhead.
	Attrib *attrib.Recorder
}

// DefaultQueueDepth is the native command queue depth used throughout the
// evaluation.
const DefaultQueueDepth = 32

// DefaultHostOverhead is the host CPU cost of issuing one block request
// (syscall, block layer, driver).
const DefaultHostOverhead = 3 * sim.Microsecond

// SSD is a drivable solid-state drive model.
type SSD struct {
	Dev   *nvm.Device
	trans Translator

	win       *sim.Window
	clock     sim.Time
	dataBytes int64
	opsCount  int64
	capacity  int64
	probe     obs.Probe
	sampler   *timeseries.Sampler
	faults    *fault.Injector
	att       *attrib.Recorder
	mountRO   error
	err       error

	// opPool is this drive's page-op free list; pooled is the translator's
	// release hook when it borrows from the pool (nil for translators that
	// allocate their own slices). Per-instance pooling keeps Matrix workers
	// share-nothing.
	opPool *pool.Buffers[nvm.PageOp]
	pooled OpPooler
}

// releaseOps hands a finished translation's slice back to the translator's
// free list (a no-op for non-pooling translators).
func (s *SSD) releaseOps(ops []nvm.PageOp) {
	if s.pooled != nil {
		s.pooled.ReleaseOps(ops)
	}
}

// OpPoolStats reports the drive's page-op free-list activity: total borrows
// served and how many reused recycled storage. Zero/zero when the translator
// does not pool.
func (s *SSD) OpPoolStats() (gets, reuses int64) {
	return s.opPool.Gets(), s.opPool.Reuses()
}

// SetProbe attaches an observability probe to the drive, its device, the
// fault injector, and (when the translator is probeable, like the FTL) the
// translation layer. A nil probe disables probing.
func (s *SSD) SetProbe(p obs.Probe) {
	s.probe = obs.OrNop(p)
	s.Dev.SetProbe(p)
	if s.faults != nil {
		s.faults.SetProbe(p)
	}
	obs.Instrument(s.trans, p)
}

// New builds an SSD from the configuration.
func New(cfg Config) (*SSD, error) {
	if cfg.Translator == nil {
		return nil, fmt.Errorf("ssd: config requires a Translator")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Cell, cfg.Bus, cfg.Link, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.CacheMode {
		dev.EnableCacheMode()
	}
	s := &SSD{
		Dev:      dev,
		trans:    cfg.Translator,
		win:      sim.NewWindow(cfg.QueueDepth, cfg.WindowBytes),
		capacity: cfg.Translator.CapacityBytes(),
		probe:    obs.Nop{},
		opPool:   new(pool.Buffers[nvm.PageOp]),
	}
	if op, ok := cfg.Translator.(OpPooler); ok {
		op.SetOpPool(s.opPool)
		s.pooled = op
	}
	if cfg.Fault != nil && cfg.Fault.Enabled() {
		s.faults = cfg.Fault
		dev.SetFaults(cfg.Fault)
	}
	// A durable-metadata translator exposes a media tap; wiring it makes the
	// device mirror every program/erase into the translator's media model so
	// crash recovery has OOB tags to scan.
	if mt, ok := cfg.Translator.(interface{ MediaTap() nvm.MediaTap }); ok {
		if tap := mt.MediaTap(); tap != nil {
			dev.SetMediaTap(tap)
		}
	}
	if cfg.Attrib != nil {
		s.att = cfg.Attrib
		dev.SetAttrib(cfg.Attrib)
	}
	if cfg.Probe != nil {
		s.SetProbe(cfg.Probe)
	}
	if cfg.Sampler != nil {
		s.SetSampler(cfg.Sampler)
	}
	return s, nil
}

// SetSampler attaches a time-series sampler and registers the whole stack's
// series on it: the device's utilization fractions and link occupancy, the
// drive's queue depth / throughput / op rate, the translator's series (FTL
// GC activity, write amplification) and the fault injector's event deltas.
// The drive owns the simulated clock, so it is the one component that
// advances the sampler. A nil sampler disables sampling.
func (s *SSD) SetSampler(ts *timeseries.Sampler) {
	s.sampler = ts
	if ts == nil {
		return
	}
	s.Dev.RegisterSeries(ts)
	ts.AddGauge("ssd.queue_depth", func(at sim.Time) float64 {
		return float64(s.win.InFlightAt(at))
	})
	ts.AddRate("ssd.throughput_bps", func(sim.Time) float64 {
		return float64(s.dataBytes)
	})
	ts.AddDelta("ssd.ops", func(sim.Time) float64 {
		return float64(s.opsCount)
	})
	timeseries.Instrument(s.trans, ts)
	if s.faults != nil {
		s.faults.RegisterSeries(ts)
	}
}

// Err returns the first error any Submit call surfaced during the drive's
// lifetime (an uncorrectable read or a read-only rejection), or nil. Replay
// discards per-op errors; this is where batch drivers find out.
func (s *SSD) Err() error { return s.err }

// Result captures one replay's measurements.
type Result struct {
	Elapsed   sim.Time
	DataBytes int64
	// Bandwidth is the application-visible rate: data bytes (metadata and
	// journal excluded) over elapsed time, in bytes/second.
	Bandwidth float64
	Stats     nvm.Stats
	// Faults snapshots the reliability counters (zero value when fault
	// injection is off).
	Faults fault.Counts
}

// MBps converts the result bandwidth to MB/s (decimal), the unit of the
// paper's charts.
func (r Result) MBps() float64 { return r.Bandwidth / 1e6 }

// String renders the result as an aligned table: the headline numbers, the
// media work counters, the utilization metrics, and the Figure 8 time
// breakdown.
func (r Result) String() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "elapsed\t%v\n", r.Elapsed)
	fmt.Fprintf(w, "data\t%d MiB\n", r.DataBytes>>20)
	fmt.Fprintf(w, "bandwidth\t%.1f MB/s\n", r.MBps())
	fmt.Fprintf(w, "media ops\t%d reads, %d programs, %d erases\n",
		r.Stats.Reads, r.Stats.Programs, r.Stats.Erases)
	fmt.Fprintf(w, "media bytes\t%d MiB read, %d MiB written\n",
		r.Stats.BytesRead>>20, r.Stats.BytesWritten>>20)
	fmt.Fprintf(w, "channel util\t%.1f%%\n", 100*r.Stats.ChannelUtilization)
	fmt.Fprintf(w, "package util\t%.1f%%\n", 100*r.Stats.PackageUtilization)
	fmt.Fprintf(w, "bus occupancy\t%.1f%%\n", 100*r.Stats.BusOccupancy)
	p := r.Stats.Breakdown.Percentages()
	for i, label := range nvm.BreakdownLabels {
		fmt.Fprintf(w, "  %s\t%5.1f%%\n", label, 100*p[i])
	}
	if r.Faults != (fault.Counts{}) {
		fmt.Fprintf(w, "fault reads\t%d clean, %d corrected, %d retried, %d uncorrectable\n",
			r.Faults.Clean, r.Faults.Corrected, r.Faults.Retried, r.Faults.Uncorrectable)
		fmt.Fprintf(w, "fault blocks\t%d grown bad (%d program, %d erase failures), %d spares left\n",
			r.Faults.GrownBadBlocks, r.Faults.ProgramFailures, r.Faults.EraseFailures, r.Faults.SparesLeft)
		if r.Faults.ReadOnly {
			fmt.Fprintf(w, "fault state\tREAD-ONLY (%d ops rejected)\n", r.Faults.RejectedOps)
		}
	}
	w.Flush()
	return b.String()
}

// Submit drives one block operation through the stack at the SSD's current
// clock and returns its completion time plus any reliability error. Sync
// operations drain the queue before issuing and hold back subsequent
// operations until they complete.
//
// Errors are typed and sticky (see Err): requests beyond the translator's
// capacity return ErrOutOfRange without touching the media; writes and
// erases against a drive that has degraded to read-only return
// fault.ErrReadOnly; reads whose bit errors exceed the ECC retry ladder
// complete (the time is still modeled) but return fault.ErrUncorrectable.
func (s *SSD) Submit(op trace.BlockOp) (sim.Time, error) {
	if s.sampler != nil {
		// Sample boundaries up to the current clock before this request
		// books more work, so gauges (queue depth) reflect the state that
		// held at each boundary.
		s.sampler.Advance(s.clock)
	}
	arrive := s.clock
	s.att.Begin(uint8(op.Kind), op.Offset, op.Size, arrive)
	if op.Sync {
		s.clock = sim.MaxTime(s.clock, s.win.Drain())
	}
	if op.Offset < 0 || op.Offset >= s.capacity || op.Size < 0 || op.Size > s.capacity-op.Offset {
		err := fmt.Errorf("%w: %s offset=%d size=%d capacity=%d",
			ErrOutOfRange, op.Kind, op.Offset, op.Size, s.capacity)
		s.keep(err)
		s.probe.Count("ssd.rejected_ops", 1)
		s.att.Abort()
		return s.clock, err
	}
	if s.faults.Crashed() {
		// Power is gone: nothing — not even reads — completes until the
		// stack is rebuilt around a recovered translator.
		err := fmt.Errorf("ssd: %s offset=%d size=%d: %w", op.Kind, op.Offset, op.Size, fault.ErrPowerLoss)
		s.keep(err)
		s.probe.Count("ssd.rejected_ops", 1)
		s.att.Abort()
		return s.clock, err
	}
	if s.faults != nil && s.faults.ReadOnly() && op.Kind != trace.Read {
		s.faults.RejectOp()
		err := fmt.Errorf("ssd: %s offset=%d size=%d: %w", op.Kind, op.Offset, op.Size, fault.ErrReadOnly)
		s.keep(err)
		s.att.Abort()
		return s.clock, err
	}
	if s.mountRO != nil && op.Kind != trace.Read {
		err := fmt.Errorf("ssd: %s offset=%d size=%d: %w", op.Kind, op.Offset, op.Size, s.mountRO)
		s.keep(err)
		s.probe.Count("ssd.rejected_ops", 1)
		s.att.Abort()
		return s.clock, err
	}
	// Translation (FTL mapping, GC relocation planning, Direct striping)
	// builds the request's page-op slice.
	var pageOps []nvm.PageOp
	switch op.Kind {
	case trace.Read:
		pageOps = s.trans.Read(op.Offset, op.Size)
	case trace.Write:
		pageOps = s.trans.Write(op.Offset, op.Size)
	case trace.Erase:
		pageOps = s.trans.Erase(op.Offset, op.Size)
	}
	issue := s.win.Admit(s.clock, op.Size)
	// Queue covers both the sync barrier drain and window admission: arrive
	// was stamped before the drain, so issue-arrive is the whole wait.
	s.att.Note(attrib.Queue, issue-arrive)
	if s.att != nil {
		gc := 0
		for _, p := range pageOps {
			if p.GC {
				gc++
			}
		}
		s.att.NotePages(len(pageOps), gc)
	}
	end := s.Dev.Submit(issue, pageOps)
	var err error
	if s.faults.Crashed() {
		// The cut fired inside this request: its in-flight program is torn
		// on the media and the request was never acknowledged.
		err = fmt.Errorf("ssd: %s offset=%d size=%d: %w", op.Kind, op.Offset, op.Size, fault.ErrPowerLoss)
		s.keep(err)
		s.probe.Count("ssd.crashed_ops", 1)
	} else if s.faults != nil {
		// Recovery relocation replays through the device; pausing the
		// recorder keeps those activations from overwriting the request's
		// own critical path — the whole delta is charged to Recovery.
		preRecover := end
		s.att.Pause()
		end = s.recover(end)
		s.att.Resume()
		s.att.Note(attrib.Recovery, end-preRecover)
		if n := s.faults.TakeUncorrectable(); n > 0 {
			err = fmt.Errorf("ssd: %d uncorrectable page read(s) in %s offset=%d: %w",
				n, op.Kind, op.Offset, fault.ErrUncorrectable)
			s.keep(err)
		}
	}
	s.win.Complete(end, op.Size)
	s.att.Commit(end)
	if op.Sync {
		s.clock = end
	} else {
		s.clock = issue + DefaultHostOverhead
	}
	if !op.Meta && !s.faults.Crashed() {
		s.dataBytes += op.Size
	}
	s.opsCount++
	s.probe.Count("ssd.ops", 1)
	s.probe.Count("ssd.bytes", op.Size)
	if !op.Meta {
		s.probe.Count("ssd.data_bytes", op.Size)
	}
	s.probe.Observe("ssd.queue.wait", issue-arrive)
	s.probe.Observe("ssd.request.latency", end-arrive)
	if s.probe.Enabled() {
		s.probe.Span(obs.LayerSSD, "queue", op.Kind.String(), arrive, end,
			obs.Attr{Key: "offset", Value: op.Offset},
			obs.Attr{Key: "size", Value: op.Size},
			obs.Attr{Key: "pages", Value: int64(len(pageOps))})
	}
	// The request is fully scheduled and every reader of pageOps above is
	// done: recycle the translation's storage for the next request.
	s.releaseOps(pageOps)
	return end, err
}

// keep records the first error a Submit surfaced.
func (s *SSD) keep(err error) {
	if s.err == nil {
		s.err = err
	}
}

// MountInfo describes a completed mount-time crash recovery so the drive
// can book its cost and, when the metadata was unrecoverable, pin the
// stack read-only.
type MountInfo struct {
	// Duration is the simulated recovery time (ftl.RecoveryReport.Duration).
	Duration sim.Time
	// ReadOnly, when non-nil, is the typed unrecoverable-metadata error;
	// every post-mount write or erase is rejected wrapping it.
	ReadOnly error
}

// Mount books a mount-time recovery against the drive's clock and
// telemetry: the whole duration lands on the Recovery attribution
// component under the synthetic "mount" request kind, and counters record
// the recovery and its cost for the HTML report.
func (s *SSD) Mount(info MountInfo) {
	arrive := s.clock
	s.att.Begin(3, 0, 0, arrive)
	s.att.Note(attrib.Recovery, info.Duration)
	end := arrive + info.Duration
	s.att.Commit(end)
	s.clock = end
	s.mountRO = info.ReadOnly
	s.probe.Count("ssd.mount.recoveries", 1)
	s.probe.Observe("ssd.mount.recovery_time", info.Duration)
}

// recover drains the injector's pending program/erase failures, asking the
// translator to retire each grown-bad block and charging the relocation
// traffic to the device clock. Relocation programs can themselves fail, so
// the drain loops until quiescent; termination is guaranteed because the
// injector never fails an already-retired block and every retirement
// consumes one finite spare. When the translator cannot relocate (or is not
// a BlockRetirer) the drive degrades to read-only.
func (s *SSD) recover(at sim.Time) sim.Time {
	for {
		fails := s.faults.TakeFailures()
		if len(fails) == 0 {
			return at
		}
		br, can := s.trans.(BlockRetirer)
		for _, f := range fails {
			if s.faults.ReadOnly() {
				return at
			}
			if !can {
				s.faults.Degrade()
				return at
			}
			r := br.RetireBlock(f.PPN)
			if !r.OK {
				s.faults.Degrade()
				return at
			}
			if !r.Retired {
				continue
			}
			s.faults.OnRetire(f.PPN)
			if len(r.Ops) > 0 {
				start := at
				at = s.Dev.Submit(at, r.Ops)
				if s.probe.Enabled() {
					s.probe.Span(obs.LayerSSD, "queue", "retire", start, at,
						obs.Attr{Key: "ppn", Value: f.PPN},
						obs.Attr{Key: "pages", Value: int64(len(r.Ops))})
				}
			}
		}
	}
}

// Replay drives a whole block trace and reports the run's measurements.
// Per-op errors are not fatal to the replay (a degraded drive keeps
// serving reads); the first one is retained and available via Err.
// It may be called repeatedly; state (clock, device timelines) accumulates,
// matching a continuously running device.
func (s *SSD) Replay(ops []trace.BlockOp) Result {
	for _, op := range ops {
		s.Submit(op)
	}
	return s.Finish()
}

// Finish drains outstanding requests and snapshots the results so far.
func (s *SSD) Finish() Result {
	s.clock = sim.MaxTime(s.clock, s.win.Drain())
	if s.sampler != nil {
		// Flush the trailing boundaries so the series cover the whole run.
		s.sampler.Advance(s.clock)
	}
	st := s.Dev.Stats()
	r := Result{
		Elapsed:   st.Span,
		DataBytes: s.dataBytes,
		Bandwidth: sim.Rate(s.dataBytes, st.Span),
		Stats:     st,
	}
	if s.faults != nil {
		r.Faults = s.faults.Counts()
		s.probe.SetGauge("ssd.fault.grown_bad_blocks", float64(r.Faults.GrownBadBlocks))
		s.probe.SetGauge("ssd.fault.spares_left", float64(r.Faults.SparesLeft))
	}
	s.probe.SetGauge("ssd.span_ps", float64(r.Elapsed))
	s.probe.SetGauge("ssd.bandwidth_bps", r.Bandwidth)
	return r
}
