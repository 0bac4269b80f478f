package nvm

import (
	"fmt"

	"oocnvm/internal/fault"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
)

// Op is a page-granular NVM transaction type.
type Op int

// NVM transaction kinds (the three verbs of the paper's Figure 4 "NVM
// transaction-level read, write, erase").
const (
	OpRead Op = iota
	OpProgram
	OpErase
)

// String names the transaction kind.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// PageOp is one page-granular transaction addressed to a physical location.
// PPN carries the physical page number the translator resolved; the device's
// scheduling ignores it, but the fault injector keys per-eraseblock wear and
// error state off it. GC marks garbage-collection traffic (relocation
// reads/programs and victim erases) so latency attribution can charge an
// activation of pure GC work to the GC component instead of the host's.
// Meta marks FTL metadata traffic (journal and checkpoint pages); LPN and
// Ver are the durable per-page OOB tags a MediaTap commits alongside the
// payload (LPN < 0 when the page carries no host data).
type PageOp struct {
	Op   Op
	Loc  Location
	PPN  int64
	GC   bool
	Meta bool
	LPN  int64
	Ver  uint64
}

// Link abstracts the host-side data path of the SSD (PCIe, possibly behind a
// SATA bridge, possibly behind a cluster network). It is a shared, exclusive
// resource: transfers serialize on it.
type Link interface {
	// Transfer books n bytes on the link no earlier than at and returns the
	// completion time.
	Transfer(at sim.Time, n int64) sim.Time
	// RequestOverhead is the fixed per-request cost of the path (protocol
	// re-encoding in bridges, network round-trip setup, ...).
	RequestOverhead() sim.Time
	// BytesPerSec reports the link's effective data bandwidth.
	BytesPerSec() float64
}

// Device is an event-driven model of one SSD's NVM complex: channel buses and
// dies as exclusive resources, Table 1 cell timings, multi-plane merging and
// die interleaving emerging from the physical layout of each request.
type Device struct {
	Geo  Geometry
	Cell CellParams
	Bus  BusParams

	link    Link
	rng     *sim.RNG
	chanBus []sim.Timeline   // one per channel
	dies    [][]sim.Timeline // [channel][dieInChannel]

	// Busy-union trackers for the paper's "kept busy" utilization probes:
	// a channel counts as busy while its bus or any die behind it works; a
	// package counts as busy while any of its dies works. After every
	// activation foldCover folds the activation's two sets at their
	// timeline watermark, so they hold only spans a later booking could
	// still overlap.
	chCover  []sim.IntervalSet   // per channel
	pkgCover [][]sim.IntervalSet // [channel][packageInChannel]

	// Contention watermarks deduplicate queueing time: when many
	// transactions wait on the same busy resource, the busy period is
	// charged to the breakdown once, not once per waiter (the paper's
	// breakdown is of device state time, not of per-waiter latency).
	chContMark  []sim.Time
	dieContMark [][]sim.Time

	// Per-operation bus and register times, fixed by the cell and bus.
	tCmd  sim.Time // one command/address sequence on the channel
	tReg  sim.Time // one page's register staging (see NewDevice)
	tXfer sim.Time // one page's data transfer on the channel bus

	breakdown  Breakdown
	pal        PALHistogram
	eraseCount map[Location]int64 // wear accounting per die/plane
	started    bool
	firstIssue sim.Time
	lastEnd    sim.Time

	// cacheMode enables dual-register ("cache read") operation: the die can
	// sense the next page while the previous page drains from the secondary
	// register, so register staging no longer occupies the die.
	cacheMode bool

	// faults, when non-nil, injects reliability behavior: read-retry
	// latency on the die timelines, program/erase failure reports, and
	// per-block wear feeding the RBER model. Nil means a failure-free
	// device with zero overhead.
	faults *fault.Injector

	// media, when non-nil, receives every program/erase as a durable
	// media-state commit (MediaTap). Durable mode also orders victim
	// erases after every program of the same request (the erase barrier):
	// a power cut mid-request must never have destroyed relocated data
	// whose journal pages were still queued behind the erase.
	media MediaTap

	// Scheduling scratch, reused across Submits. The die buckets, plane
	// merge queues and activation groups below hold int32 indices into the
	// batch's ops rather than op copies; as persistent per-device storage
	// they grow to the workload's high-water mark once and steady-state
	// scheduling allocates nothing. Activations are ranges of scGroups, so
	// they are valid only until the next batch is scheduled.
	scBuckets [][]int32      // per (channel, die) op buckets, layout order
	scDieActs [][]activation // per non-empty die activation sequences
	scOut     []activation   // round-robin interleaved dispatch order
	scErase   []activation   // durable-mode erase-barrier holdbacks
	scErased  []int64        // eraseblocks erased so far by a durable-mode request
	scPlane   [][]int32      // per-plane merge queues
	scPlaneHd []int          // consumed heads of the per-plane queues
	scGroups  []int32        // activation groups, back to back

	// att, when non-nil, receives per-request critical-path attribution:
	// the chain of timestamp differences from dispatch to completion of
	// every cell activation (the latest-finishing chain is the request's
	// critical path). All Recorder methods are nil-safe, so the nil case
	// costs one predictable branch.
	att *attrib.Recorder
	// attGCSvc accumulates, per die and per request, the die occupancy of
	// this request's own garbage-collection activations. Foreground GC
	// precedes the host pages that triggered it, so a host chain's entry
	// die-wait silently absorbs the collection service; the split charges
	// that portion to the GC component instead. Reset on every Submit.
	attGCSvc []sim.Time
	// attActGC marks the activation currently executing as all-GC traffic.
	attActGC bool

	// The device's work counters and latency histogram live in a private
	// obs.Registry so Stats is assembled from the registry in one place and
	// a run-level collector can absorb them for export. The probe receives
	// only spans (bus transfers, die activations); counters never go
	// through it, so absorbing the registry cannot double-count.
	reg      *obs.Registry
	probe    obs.Probe
	cReads   *obs.Counter
	cProgs   *obs.Counter
	cErases  *obs.Counter
	cBytesRd *obs.Counter
	cBytesWr *obs.Counter
	cPAL     [4]*obs.Counter
	hLatency *obs.Histogram
	hRetry   *obs.Histogram
}

// SetFaults attaches a fault injector. Call before submitting work; a nil
// injector restores the failure-free device.
func (d *Device) SetFaults(inj *fault.Injector) { d.faults = inj }

// SetMediaTap attaches a durable media model. Call before submitting
// work; nil restores the volatile (and erase-barrier-free) device.
func (d *Device) SetMediaTap(m MediaTap) { d.media = m }

// EnableCacheMode turns on dual-register cache operation (see the cacheMode
// field). Call before submitting work.
func (d *Device) EnableCacheMode() { d.cacheMode = true }

// SetAttrib attaches a latency-attribution recorder. Nil detaches.
func (d *Device) SetAttrib(rec *attrib.Recorder) {
	d.att = rec
	if rec != nil && d.attGCSvc == nil {
		d.attGCSvc = make([]sim.Time, d.Geo.Channels*d.Geo.DiesPerChannel())
	}
}

// NewDevice assembles a device from its geometry, medium, channel bus and
// host link. The seed fixes the program-latency variation stream.
func NewDevice(geo Geometry, cell CellParams, bus BusParams, link Link, seed uint64) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if link == nil {
		return nil, fmt.Errorf("nvm: device requires a host link")
	}
	d := &Device{
		Geo: geo, Cell: cell, Bus: bus,
		link:        link,
		rng:         sim.NewRNG(seed),
		chanBus:     make([]sim.Timeline, geo.Channels),
		dies:        make([][]sim.Timeline, geo.Channels),
		chCover:     make([]sim.IntervalSet, geo.Channels),
		pkgCover:    make([][]sim.IntervalSet, geo.Channels),
		chContMark:  make([]sim.Time, geo.Channels),
		dieContMark: make([][]sim.Time, geo.Channels),
		eraseCount:  make(map[Location]int64),
		tCmd:        bus.CommandTime(),
		// Register staging between a die's page register and the channel
		// ("flash bus activation"): the internal flash bus runs at twice
		// the external channel rate.
		tReg:  sim.DurationForBytes(cell.PageSize, 2*bus.BytesPerSec()),
		tXfer: bus.TransferTime(cell.PageSize),
	}
	for c := range d.dies {
		d.dies[c] = make([]sim.Timeline, geo.DiesPerChannel())
		d.pkgCover[c] = make([]sim.IntervalSet, geo.PackagesPerChannel)
		d.dieContMark[c] = make([]sim.Time, geo.DiesPerChannel())
	}
	d.probe = obs.Nop{}
	d.bindMetrics(obs.NewRegistry())
	return d, nil
}

// bindMetrics points the device's counter handles into r.
func (d *Device) bindMetrics(r *obs.Registry) {
	d.reg = r
	d.cReads = r.Counter("nvm.reads")
	d.cProgs = r.Counter("nvm.programs")
	d.cErases = r.Counter("nvm.erases")
	d.cBytesRd = r.Counter("nvm.bytes_read")
	d.cBytesWr = r.Counter("nvm.bytes_written")
	d.cPAL[0] = r.Counter("nvm.pal1")
	d.cPAL[1] = r.Counter("nvm.pal2")
	d.cPAL[2] = r.Counter("nvm.pal3")
	d.cPAL[3] = r.Counter("nvm.pal4")
	d.hLatency = r.Histogram("nvm.device.latency")
	d.hRetry = r.Histogram("nvm.read.retry")
}

// Registry exposes the device's private metrics registry (work counters,
// PAL tallies, the request-latency histogram, and the derived gauges Stats
// refreshes). Absorb it into a run-level registry for export.
func (d *Device) Registry() *obs.Registry { return d.reg }

// SetProbe attaches an observability probe: the device emits spans for
// every die activation and channel-bus transfer through it. A nil probe
// resets to the free no-op probe.
func (d *Device) SetProbe(p obs.Probe) {
	d.probe = obs.OrNop(p)
	obs.Instrument(d.link, p)
}

// ChannelBusy sums the cumulative booked busy time of every channel bus.
func (d *Device) ChannelBusy() sim.Time {
	var t sim.Time
	for i := range d.chanBus {
		t += d.chanBus[i].Busy()
	}
	return t
}

// DieBusy sums the cumulative booked busy time of every die.
func (d *Device) DieBusy() sim.Time {
	var t sim.Time
	for c := range d.dies {
		for i := range d.dies[c] {
			t += d.dies[c][i].Busy()
		}
	}
	return t
}

// RegisterSeries registers the device's time-resolved telemetry: per-pool
// busy fractions for channel buses and dies, and — when the host link tracks
// its own occupancy — the interconnect's busy fraction. Busy time is booked
// at dispatch, so a sample can include work scheduled past its boundary; the
// sampler clamps fractions at export (dispatch-horizon sampling).
func (d *Device) RegisterSeries(ts *timeseries.Sampler) {
	ts.AddFraction("nvm.channel_util", float64(d.Geo.Channels),
		func(sim.Time) float64 { return float64(d.ChannelBusy()) })
	ts.AddFraction("nvm.die_util", float64(d.Geo.Channels*d.Geo.DiesPerChannel()),
		func(sim.Time) float64 { return float64(d.DieBusy()) })
	if l, ok := d.link.(interface{ Busy() sim.Time }); ok {
		ts.AddFraction("interconnect.link_occupancy", 1,
			func(sim.Time) float64 { return float64(l.Busy()) })
	}
}

// activation groups page ops that share one cell activation: up to one op per
// plane of a single die, merged by multi-plane command. It is the range
// scGroups[lo:hi] of indices into the batch's ops.
type activation struct{ lo, hi int32 }

// Submit executes all page operations of one host request, issued at 'at',
// and returns the completion time of the request. Operations are scheduled
// against the device's persistent channel/die timelines, so back-to-back
// requests pipeline naturally.
func (d *Device) Submit(at sim.Time, ops []PageOp) sim.Time {
	if len(ops) == 0 {
		return at
	}
	if !d.started {
		d.firstIssue = at
		d.started = true
	}

	issue := at
	if oh := d.link.RequestOverhead(); oh > 0 {
		issue += oh
		d.breakdown.NonOverlappedDMA += oh
		d.att.Note(attrib.HostOverhead, oh)
	}
	attributing := d.att.DeviceActive()
	if attributing {
		for i := range d.attGCSvc {
			d.attGCSvc[i] = 0
		}
	}

	var (
		end                    sim.Time
		multiplane, interleave bool
	)
	// A durable-mode request runs in batches: each batch holds its erases
	// behind its own programs (the erase barrier), and a program into an
	// eraseblock an earlier op erased starts the next batch once the
	// barrier has passed.
	for rest, start := ops, issue; len(rest) > 0; start = sim.MaxTime(end, issue) {
		batch := rest
		if d.media != nil {
			batch = rest[:d.reprogramCut(rest)]
		}
		bEnd, bMulti, bInter := d.runBatch(issue, start, batch, attributing)
		end = sim.MaxTime(end, bEnd)
		multiplane = multiplane || bMulti
		interleave = interleave || bInter
		rest = rest[len(batch):]
	}

	pal := PAL1
	switch {
	case interleave && multiplane:
		pal = PAL4
	case multiplane:
		pal = PAL3
	case interleave:
		pal = PAL2
	}
	d.pal.Record(pal)
	d.cPAL[pal-1].Inc()
	d.hLatency.Observe(end - at)
	if d.probe.Enabled() {
		d.probe.Span(obs.LayerNVM, "device", "submit", at, end,
			obs.Attr{Key: "ops", Value: len(ops)},
			obs.Attr{Key: "pal", Value: pal.String()})
	}

	d.lastEnd = sim.MaxTime(d.lastEnd, end)
	return end
}

// runBatch schedules ops and executes their activations from start; issue
// is the request's issue instant, and any wait between the two is charged
// like the erase barrier's.
func (d *Device) runBatch(issue, start sim.Time, ops []PageOp, attributing bool) (end sim.Time, multiplane, interleave bool) {
	acts, interleave := d.schedule(ops)
	eraseActs := d.scErase[:0]
	for _, a := range acts {
		if a.hi-a.lo > 1 {
			multiplane = true
		}
		// Durable mode holds erases back behind every program of the
		// batch: plane interleaving would otherwise let a victim erase
		// execute before the relocation programs and journal pages that
		// make destroying the victim safe, so a crash between the two
		// could lose acknowledged data.
		if d.media != nil && ops[d.scGroups[a.lo]].Op == OpErase {
			eraseActs = append(eraseActs, a)
			continue
		}
		end = sim.MaxTime(end, d.runActivation(start, start-issue, ops, a, attributing))
	}
	d.scErase = eraseActs
	if len(eraseActs) > 0 {
		barrier := sim.MaxTime(end, start)
		for _, a := range eraseActs {
			end = sim.MaxTime(end, d.runActivation(barrier, barrier-issue, ops, a, attributing))
		}
	}
	return end, multiplane, interleave
}

// reprogramCut returns how many leading ops of a durable-mode request may
// run as one erase-barrier batch: everything before the first data program
// into an eraseblock an earlier op of the request erases. That happens
// when GC reallocates a victim within the request that collected it, and
// holding the victim's erase behind such a program would wipe the page.
func (d *Device) reprogramCut(ops []PageOp) int {
	erased := d.scErased[:0]
	cut := len(ops)
scan:
	for i, op := range ops {
		switch {
		case op.Op == OpErase:
			erased = append(erased, d.Geo.EraseBlock(op.PPN, d.Cell))
		case op.Op == OpProgram && !op.Meta && len(erased) > 0:
			b := d.Geo.EraseBlock(op.PPN, d.Cell)
			for _, e := range erased {
				if e == b {
					cut = i
					break scan
				}
			}
		}
	}
	d.scErased = erased
	return cut
}

// runActivation executes one activation of the batch ops at issueAt with
// its attribution chain, then folds the cover sets it marked. pre is the
// already-elapsed time from the request's issue instant (the durable-mode
// erase barrier); it is charged to the Meta component so the chain still
// telescopes from issue to completion. After a power cut the remaining
// activations are void: the device returns issueAt without touching any
// timeline, so a crashed request's completion never regresses below work
// that actually executed.
func (d *Device) runActivation(issueAt, pre sim.Time, ops []PageOp, a activation, attributing bool) sim.Time {
	if d.faults.Crashed() {
		return issueAt
	}
	idx := d.scGroups[a.lo:a.hi]
	if attributing {
		gc, meta := true, true
		for _, i := range idx {
			if !ops[i].GC {
				gc = false
			}
			if !ops[i].Meta {
				meta = false
			}
		}
		d.attActGC = gc
		fold := attrib.Component(-1)
		switch {
		case meta:
			fold = attrib.Meta
		case gc:
			fold = attrib.GC
		}
		d.att.StartActivationFold(fold)
		d.att.Seg(attrib.Meta, pre)
	}
	done := d.execActivation(issueAt, ops, idx)
	if attributing {
		d.att.EndActivation(done)
	}
	loc := ops[idx[0]].Loc
	d.foldCover(loc.Channel, loc.Die)
	return done
}

// schedule buckets ops per (channel, die) in deterministic layout order,
// merges each die bucket into a sequence of activations — pairing ops on
// distinct planes of the die into multi-plane activations when the medium
// supports it and the ops share the same verb — and interleaves the per-die
// sequences round-robin (activation 0 of every die, then activation 1, ...)
// so that shared resources — the channel buses and the host link — are booked
// in approximate time order, the way the controller actually dispatches work
// across dies. It also reports die interleaving (some channel drives more
// than one die) for the request's PAL classification.
//
// Everything is built in the device's persistent scratch: the returned
// activations are valid only until the next call.
func (d *Device) schedule(ops []PageOp) (out []activation, interleave bool) {
	dpc := d.Geo.DiesPerChannel()
	planes := d.Cell.Planes
	if n := d.Geo.Channels * dpc; len(d.scBuckets) != n {
		d.scBuckets = make([][]int32, n)
	}
	if planes > 1 && len(d.scPlane) != planes {
		d.scPlane = make([][]int32, planes)
		d.scPlaneHd = make([]int, planes)
	}
	buckets := d.scBuckets
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	d.scGroups = d.scGroups[:0]
	for i := range ops {
		idx := ops[i].Loc.Channel*dpc + ops[i].Loc.Die
		buckets[idx] = append(buckets[idx], int32(i))
	}

	nDie, maxLen := 0, 0
	curCh, chDies := -1, 0
	for idx, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		if ch := idx / dpc; ch != curCh {
			curCh, chDies = ch, 0
		}
		if chDies++; chDies > 1 {
			interleave = true
		}
		if nDie == len(d.scDieActs) {
			d.scDieActs = append(d.scDieActs, nil)
		}
		acts := d.scDieActs[nDie][:0]
		if planes <= 1 {
			for _, i := range bucket {
				d.scGroups = append(d.scGroups, i)
				n := int32(len(d.scGroups))
				acts = append(acts, activation{n - 1, n})
			}
		} else {
			// Queue per plane, preserving arrival order; heads advance as
			// rounds consume them.
			for p := 0; p < planes; p++ {
				d.scPlane[p] = d.scPlane[p][:0]
				d.scPlaneHd[p] = 0
			}
			for _, i := range bucket {
				p := ops[i].Loc.Plane % planes
				d.scPlane[p] = append(d.scPlane[p], i)
			}
			for {
				gstart := len(d.scGroups)
				var verb Op
				for p := 0; p < planes; p++ {
					if d.scPlaneHd[p] >= len(d.scPlane[p]) {
						continue
					}
					head := d.scPlane[p][d.scPlaneHd[p]]
					if len(d.scGroups) == gstart {
						verb = ops[head].Op
					} else if ops[head].Op != verb {
						continue // different verb cannot share an activation
					}
					d.scGroups = append(d.scGroups, head)
					d.scPlaneHd[p]++
				}
				if len(d.scGroups) == gstart {
					break
				}
				acts = append(acts, activation{int32(gstart), int32(len(d.scGroups))})
			}
		}
		d.scDieActs[nDie] = acts
		nDie++
		if len(acts) > maxLen {
			maxLen = len(acts)
		}
	}

	out = d.scOut[:0]
	for i := 0; i < maxLen; i++ {
		for k := 0; k < nDie; k++ {
			if a := d.scDieActs[k]; i < len(a) {
				out = append(out, a[i])
			}
		}
	}
	d.scOut = out
	return out, interleave
}

// foldCover folds the cover sets of a channel and of a die's package at
// their watermarks. Every later booking on a die or a bus starts at or after
// that timeline's free horizon (sim.Timeline.Acquire), and cache-mode
// staging, which is not booked, starts at or after its die's; so no later
// mark on a set can start before the least horizon among the resources
// feeding it — the bus and every die for a channel, the package's dies for
// a package. A die that is never booked holds its sets' watermark at 0.
func (d *Device) foldCover(c, die int) {
	dies := d.dies[c]
	ppc := d.Geo.PackagesPerChannel
	pkg := d.Geo.Package(die)
	chW, pkgW := d.chanBus[c].FreeAt(), dies[pkg].FreeAt()
	for i := range dies {
		f := dies[i].FreeAt()
		chW = min(chW, f)
		if i%ppc == pkg {
			pkgW = min(pkgW, f)
		}
	}
	d.chCover[c].Fold(chW)
	d.pkgCover[c][pkg].Fold(pkgW)
}

// PendingCoverSpans reports the largest pending (unfolded) span count over
// the channel and package cover sets: the memory the utilization probes
// hold.
func (d *Device) PendingCoverSpans() int {
	n := 0
	for c := range d.chCover {
		n = max(n, d.chCover[c].Len())
		for p := range d.pkgCover[c] {
			n = max(n, d.pkgCover[c][p].Len())
		}
	}
	return n
}

// markChan records channel busy time for the utilization probes.
func (d *Device) markChan(c int, start, end sim.Time) {
	d.chCover[c].Add(start, end)
}

// markDie records die busy time: the die's package is busy, and so is the
// channel it hangs off (the "kept busy" union).
func (d *Device) markDie(c, die int, start, end sim.Time) {
	d.chCover[c].Add(start, end)
	d.pkgCover[c][d.Geo.Package(die)].Add(start, end)
}

// chargeDieWait charges the wait [from, start) on a die to cell contention,
// deduplicated against time already charged for that die.
func (d *Device) chargeDieWait(c, die int, from, start sim.Time) {
	mark := d.dieContMark[c][die]
	if from < mark {
		from = mark
	}
	if start > from {
		d.breakdown.CellContention += start - from
		d.dieContMark[c][die] = start
	}
}

// chargeChanWait charges the wait [from, start) on a channel bus to channel
// contention, deduplicated against time already charged for that channel.
func (d *Device) chargeChanWait(c int, from, start sim.Time) {
	mark := d.chContMark[c]
	if from < mark {
		from = mark
	}
	if start > from {
		d.breakdown.ChannelContention += start - from
		d.chContMark[c] = start
	}
}

// attEntryWait attributes a chain's entry die-wait, splitting out the
// portion induced by this request's own collection service on the die (an
// exact re-labeling: the two segments sum to the original wait). GC chains
// never split against themselves — their whole chain folds on commit.
func (d *Device) attEntryWait(dieIdx int, wait sim.Time) {
	if wait <= 0 {
		return
	}
	if gc := d.attGCSvc[dieIdx]; gc > 0 && !d.attActGC {
		if gc > wait {
			gc = wait
		}
		d.att.Seg(attrib.GC, gc)
		wait -= gc
	}
	d.att.Seg(attrib.DieWait, wait)
}

// execActivation schedules one cell activation (1..Planes page ops on a
// single die, the batch ops at idx) and returns its completion time,
// accumulating the six-state breakdown along the way.
func (d *Device) execActivation(issue sim.Time, ops []PageOp, idx []int32) sim.Time {
	first := &ops[idx[0]]
	c, di := first.Loc.Channel, first.Loc.Die
	ch := &d.chanBus[c]
	die := &d.dies[c][di]
	cmd, reg, xfer := d.tCmd, d.tReg, d.tXfer
	dieIdx := c*d.Geo.DiesPerChannel() + di
	pages := int64(len(idx))

	// Trace tracks: one "thread" per die and per channel bus. Names are
	// built only when a live probe will consume the spans.
	probing := d.probe.Enabled()
	var dieTrack, busTrack string
	if probing {
		dieTrack = fmt.Sprintf("ch%02d/die%02d", c, di)
		busTrack = fmt.Sprintf("ch%02d/bus", c)
	}
	attributing := d.att.DeviceActive()
	// All-GC activations bank their die occupancy so that later host chains
	// in the same request can re-label the wait they induce (attEntryWait).
	gcAcc := attributing && d.attActGC

	switch first.Op {
	case OpRead:
		// Command/address cycles reach the die through the channel; they are
		// a dozen bus clocks, so they are folded into the die's occupancy
		// (booking 30 ns slots on the shared-bus horizon out of time order
		// would spuriously serialize the dies).
		d.breakdown.ChannelBus += cmd
		// Sensing on the die (one tR regardless of merged plane count).
		as, ae := die.Acquire(issue, cmd+d.Cell.ReadLatency)
		d.chargeDieWait(c, di, issue, as)
		d.breakdown.CellActivation += d.Cell.ReadLatency
		if attributing {
			d.attEntryWait(dieIdx, as-issue)
		}
		d.att.Seg(attrib.DieService, ae-as)
		if gcAcc {
			d.attGCSvc[dieIdx] += ae - as
		}
		if probing {
			d.probe.Span(obs.LayerNVM, dieTrack, "sense", as, ae)
		}
		// Read-retry: when the ECC budget of any merged page needs stepped
		// re-senses, the die re-runs the sense that many times before the
		// data can stage out. Each step costs a full command+tR.
		if d.faults != nil {
			retries := 0
			for _, i := range idx {
				if rr := d.faults.ReadPage(ops[i].PPN); rr.Retries > retries {
					retries = rr.Retries
				}
			}
			if retries > 0 {
				step := sim.Time(retries) * (cmd + d.Cell.ReadLatency)
				rs, re := die.Acquire(ae, step)
				d.chargeDieWait(c, di, ae, rs)
				d.breakdown.CellActivation += step
				d.hRetry.Observe(step)
				d.att.Seg(attrib.DieWait, rs-ae)
				d.att.Seg(attrib.Retry, re-rs)
				if gcAcc {
					d.attGCSvc[dieIdx] += re - rs
				}
				if probing {
					d.probe.Span(obs.LayerNVM, dieTrack, "read-retry", rs, re,
						obs.Attr{Key: "retries", Value: retries})
				}
				ae = re
			}
		}
		// Per merged page: register staging then data-out then DMA. Staging
		// is contiguous from ae: in cache mode it drains from the secondary
		// register, leaving the die free to sense the next page immediately;
		// otherwise it books the die back to back from its horizon, ae. In
		// both modes the die is busy over [as, ae+pages*reg), marked once.
		stageEnd := ae + sim.Time(pages)*reg
		if !d.cacheMode {
			die.Acquire(ae, stageEnd-ae)
			if gcAcc {
				d.attGCSvc[dieIdx] += stageEnd - ae
			}
		}
		d.breakdown.FlashBus += stageEnd - ae
		d.markDie(c, di, as, stageEnd)
		// For attribution the critical page is the one completing the
		// activation (the first page reaching the maximum DMA end, matching
		// sim.MaxTime keeping the first maximum); its chain from the
		// post-sense instant — staging, bus wait, bus transfer, host-link
		// time — telescopes exactly to the activation's completion; its
		// staging total is just its staging end minus ae.
		end := ae
		var critStage, critBusW, critBusX, critLink sim.Time
		critEnd := ae
		for k := int64(1); k <= pages; k++ {
			re := ae + sim.Time(k)*reg
			xs, xe := ch.Acquire(re, xfer)
			d.chargeChanWait(c, re, xs)
			d.breakdown.ChannelBus += xfer
			d.markChan(c, xs, xe)
			if probing {
				d.probe.Span(obs.LayerNVM, dieTrack, "stage", re-reg, re)
				d.probe.Span(obs.LayerNVM, busTrack, "xfer", xs, xe)
			}
			de := d.link.Transfer(xe, d.Cell.PageSize)
			d.breakdown.NonOverlappedDMA += de - xe
			if attributing && de > critEnd {
				critEnd = de
				critStage = re - ae
				critBusW = xs - re
				critBusX = xe - xs
				critLink = de - xe
			}
			end = sim.MaxTime(end, de)
		}
		d.cReads.Add(pages)
		d.cBytesRd.Add(pages * d.Cell.PageSize)
		if attributing && critEnd > ae {
			d.att.Seg(attrib.DieService, critStage)
			d.att.Seg(attrib.BusWait, critBusW)
			d.att.Seg(attrib.BusXfer, critBusX)
			// The host-link time splits into pure wire time and queueing
			// behind other transfers; for multi-stage Chain links the wire
			// bound is the bottleneck stage's, so the split (only) is
			// approximate there — the sum stays exact.
			wire := sim.DurationForBytes(d.Cell.PageSize, d.link.BytesPerSec())
			if wire > critLink {
				wire = critLink
			}
			d.att.Seg(attrib.LinkXfer, wire)
			d.att.Seg(attrib.LinkWait, critLink-wire)
		}
		return end

	case OpProgram:
		// Host data lands in the controller first.
		dmaEnd := issue
		for range idx {
			dmaEnd = d.link.Transfer(dmaEnd, d.Cell.PageSize)
		}
		d.breakdown.NonOverlappedDMA += dmaEnd - issue
		if attributing {
			// Host DMA: pure wire time for the payload, the rest is
			// queueing behind other transfers on the shared link.
			total := dmaEnd - issue
			wire := sim.Time(pages) * sim.DurationForBytes(d.Cell.PageSize, d.link.BytesPerSec())
			if wire > total {
				wire = total
			}
			d.att.Seg(attrib.LinkXfer, wire)
			d.att.Seg(attrib.LinkWait, total-wire)
			d.att.Seg(attrib.BusXfer, cmd)
		}
		// Command/address cycles are folded into the first data-in transfer
		// (see the read path for why they do not book the bus horizon).
		d.breakdown.ChannelBus += cmd
		cursor := dmaEnd + cmd
		for range idx {
			xs, xe := ch.Acquire(cursor, xfer)
			d.chargeChanWait(c, cursor, xs)
			d.breakdown.ChannelBus += xfer
			d.markChan(c, xs, xe)
			d.att.Seg(attrib.BusWait, xs-cursor)
			d.att.Seg(attrib.BusXfer, xe-xs)
			rs, re := die.Acquire(xe, reg)
			if gcAcc {
				d.attGCSvc[dieIdx] += re - rs
			}
			d.breakdown.FlashBus += reg
			d.markDie(c, di, rs, re)
			if probing {
				d.probe.Span(obs.LayerNVM, busTrack, "xfer", xs, xe)
				d.probe.Span(obs.LayerNVM, dieTrack, "stage", rs, re)
			}
			cursor = xe
		}
		d.cProgs.Add(pages)
		d.cBytesWr.Add(pages * d.Cell.PageSize)
		// One program covers all merged planes.
		lat := d.Cell.ProgramLatency(d.rng)
		ps, pe := die.Acquire(cursor, lat)
		d.chargeDieWait(c, di, cursor, ps)
		d.breakdown.CellActivation += lat
		d.markDie(c, di, ps, pe)
		// The wait covers the register-staging drain of this activation's
		// own data-in as well as earlier activations on the die.
		if attributing {
			d.attEntryWait(dieIdx, ps-cursor)
		}
		d.att.Seg(attrib.DieService, pe-ps)
		if gcAcc {
			d.attGCSvc[dieIdx] += pe - ps
		}
		if probing {
			d.probe.Span(obs.LayerNVM, dieTrack, "program", ps, pe)
		}
		if d.faults != nil || d.media != nil {
			for _, i := range idx {
				if d.faults.Crashed() {
					break
				}
				if d.faults != nil && d.faults.CrashOnOp(pe) {
					// Power cut mid-program: the in-flight page is torn
					// (payload garbage, OOB tags unlanded); later planes
					// of the activation never started.
					if d.media != nil {
						d.media.MediaProgram(ops[i], true)
					}
					break
				}
				if d.media != nil {
					d.media.MediaProgram(ops[i], false)
				}
				if d.faults != nil {
					d.faults.OnProgram(ops[i].PPN)
				}
			}
		}
		return pe

	case OpErase:
		d.breakdown.ChannelBus += cmd
		es, ee := die.Acquire(issue, cmd+d.Cell.EraseLatency)
		d.chargeDieWait(c, di, issue, es)
		d.breakdown.CellActivation += d.Cell.EraseLatency
		d.markDie(c, di, es, ee)
		if attributing {
			d.attEntryWait(dieIdx, es-issue)
		}
		d.att.Seg(attrib.DieService, ee-es)
		if gcAcc {
			d.attGCSvc[dieIdx] += ee - es
		}
		if probing {
			d.probe.Span(obs.LayerNVM, dieTrack, "erase", es, ee)
		}
		for _, i := range idx {
			op := &ops[i]
			if d.faults.Crashed() {
				break
			}
			if d.faults != nil && d.faults.CrashOnOp(ee) {
				// Power cut mid-erase: the pulse already destroyed the
				// block's contents, so the media still clears it, but the
				// wear bump and fault report never happen.
				if d.media != nil {
					d.media.MediaErase(*op, true)
				}
				break
			}
			d.cErases.Inc()
			key := Location{Channel: op.Loc.Channel, Die: op.Loc.Die, Plane: op.Loc.Plane}
			d.eraseCount[key]++
			if d.media != nil {
				d.media.MediaErase(*op, false)
			}
			if d.faults != nil {
				d.faults.OnErase(op.PPN)
			}
		}
		return ee

	default:
		panic(fmt.Sprintf("nvm: unknown op %v", first.Op))
	}
}
