package main

import (
	"fmt"
	"sync"
	"time"

	"oocnvm/internal/check"
	"oocnvm/internal/experiment"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/export"
	"oocnvm/internal/obs/hostperf"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// hooks selects the observer families attached to a stack.
type hooks struct {
	probe   bool // obs.Collector: metrics registry and span tracer
	sampler bool // timeseries.Sampler on the simulated clock
	attrib  bool // attrib.Recorder, per-request latency anatomy
	oracle  bool // check.Wrap integrity oracle around the translator
	host    bool // hostperf phase and allocation-site attribution
}

var allHooks = hooks{probe: true, sampler: true, attrib: true, oracle: true, host: true}

// spec describes one drive: a Table 2 row on a cell type and geometry, with
// the FTL preloaded with preload bytes (ignored for UFS rows, which use
// ssd.Direct), fed through link (the row's own link when nil).
type spec struct {
	cfg     experiment.Config
	cell    nvm.CellType
	geo     nvm.Geometry
	preload int64
	window  int64
	seed    uint64
	link    nvm.Link
}

// stack is one assembled drive plus everything the benchmark reads back.
type stack struct {
	drive   *ssd.SSD
	ftl     *ftl.FTL // nil on UFS rows
	checked *check.Checked
	env     check.Envelope
	col     *obs.Collector
	rec     *attrib.Recorder
	host    bool

	// Traced-run instruments (nil when untraced).
	tt *timedTranslator
	cl *countedLink

	// base is the state mark left: the traced figures and the page-op
	// count cover only what happened after it.
	base    ssd.Result
	baseFTL ftl.Stats
}

// mark drains the drive and makes its current state the base the timed
// region's figures are measured from (after preconditioning).
func (st *stack) mark() {
	st.base = st.drive.Finish()
	if st.ftl != nil {
		st.baseFTL = st.ftl.Stats()
	}
}

// pageOps counts the simulated page operations of res beyond the mark.
func (st *stack) pageOps(res ssd.Result) int64 {
	return pageOps(res.Stats) - pageOps(st.base.Stats)
}

func pageOps(s nvm.Stats) int64 { return s.Reads + s.Programs + s.Erases }

// build assembles the drive the way experiment's replay does, with the
// selected observers attached. With a ledger it times the FTL constructors
// and wraps the translator and the link in the layer timers.
func build(sp spec, h hooks, l *ledger) (*stack, error) {
	cp := nvm.Params(sp.cell)
	st := &stack{host: h.host}
	var tr ssd.Translator
	if sp.cfg.Kind == experiment.FSUFS {
		tr = ssd.NewDirect(sp.geo, cp)
	} else {
		start := time.Now()
		f, err := ftl.New(sp.geo, cp, ftl.Config{})
		if err != nil {
			return nil, err
		}
		l.add("ftl.new_s", time.Since(start).Seconds())
		start = time.Now()
		if err := f.Preload(sp.preload); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", sp.cfg.Name, sp.cell, err)
		}
		l.add("ftl.preload_s", time.Since(start).Seconds())
		st.ftl = f
		tr = f
	}
	link := sp.link
	if link == nil {
		link = sp.cfg.BuildLink()
	}
	st.env = check.NewEnvelope(sp.geo, cp, sp.cfg.Bus, link)
	if l != nil {
		st.tt = &timedTranslator{inner: tr}
		tr = st.tt
		link, st.cl = countLink(link)
	}
	if h.oracle {
		st.checked = check.Wrap(tr, sp.seed)
		tr = st.checked
	}
	sc := ssd.Config{
		Geometry:    sp.geo,
		Cell:        cp,
		Bus:         sp.cfg.Bus,
		Link:        link,
		Translator:  tr,
		QueueDepth:  ssd.DefaultQueueDepth,
		WindowBytes: sp.window,
		Seed:        sp.seed,
	}
	if h.probe {
		st.col = obs.NewCollector()
		sc.Probe = st.col
	}
	if h.sampler {
		sc.Sampler = timeseries.NewSampler(sim.Time(export.DefaultSampleUS)*sim.Microsecond, 0)
	}
	if h.attrib {
		st.rec = attrib.NewRecorder(attrib.DefaultTopK)
		if st.col != nil {
			st.rec.BindRegistry(st.col.Reg)
		}
		sc.Attrib = st.rec
	}
	drive, err := ssd.New(sc)
	if err != nil {
		return nil, err
	}
	st.drive = drive
	return st, nil
}

// replay submits ops one by one (exactly what ssd.Replay does) and counts
// the requests that return an error. With a ledger it also times every
// request and charges translator time and link traffic to their layers.
func (st *stack) replay(ops []trace.BlockOp, l *ledger) (ssd.Result, int64) {
	if st.host {
		hc := hostperf.NewCollector()
		defer hostperf.DisableAttrib()
		defer hc.Phase("replay")()
	}
	var failed int64
	if l == nil {
		for _, op := range ops {
			if _, err := st.drive.Submit(op); err != nil {
				failed++
			}
		}
		return st.drive.Finish(), failed
	}
	t0, c0 := st.tt.spent, st.tt.calls
	x0, b0 := st.cl.transfers, st.cl.bytes
	submits := make([]float64, 0, len(ops))
	begin := time.Now()
	for _, op := range ops {
		start := time.Now()
		_, err := st.drive.Submit(op)
		submits = append(submits, float64(time.Since(start).Nanoseconds()))
		if err != nil {
			failed++
		}
	}
	res := st.drive.Finish()
	total := time.Since(begin).Seconds()
	translate := (st.tt.spent - t0).Seconds()
	if st.ftl != nil {
		l.add("ftl.translate_s", translate)
		l.add("ftl.translate_calls", float64(st.tt.calls-c0))
	} else {
		l.add("ssd.direct_s", translate)
		l.add("ssd.direct_calls", float64(st.tt.calls-c0))
	}
	l.add("nvm.self_s", total-translate)
	l.add("interconnect.transfers", float64(st.cl.transfers-x0))
	l.add("interconnect.bytes", float64(st.cl.bytes-b0))
	l.addSamples(submits, total)
	return res, failed
}

// problems lists every check the stack's last replay broke: the oracle's
// violations, the attribution conservation envelope and the analytical
// envelope on res.
func (st *stack) problems(res ssd.Result) []string {
	var vs []check.Violation
	if st.checked != nil {
		vs = append(vs, st.checked.Oracle().Violations()...)
	}
	if st.rec != nil {
		vs = append(vs, check.CheckAttribution(st.rec.Summary())...)
	}
	vs = append(vs, st.env.Check(res)...)
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// ledger accumulates the traced run's per-layer figures. Figures' cells
// run on several workers, so it locks.
type ledger struct {
	mu      sync.Mutex
	v       map[string]float64
	submit  []float64 // host ns per Submit
	replays []float64 // host s per replay
}

func newLedger() *ledger { return &ledger{v: make(map[string]float64)} }

// add adds x to the named figure; a nil ledger (the untraced run) ignores
// it.
func (l *ledger) add(name string, x float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.v[name] += x
	l.mu.Unlock()
}

func (l *ledger) addSamples(submits []float64, replay float64) {
	l.mu.Lock()
	l.submit = append(l.submit, submits...)
	l.replays = append(l.replays, replay)
	l.mu.Unlock()
}

// addResult folds one replay's simulated outcome into the ledger.
func (l *ledger) addResult(st *stack, res ssd.Result) {
	if l == nil {
		return
	}
	s, b := res.Stats, st.base.Stats
	elapsed := (res.Elapsed - st.base.Elapsed).Seconds()
	l.add("nvm.page_reads", float64(s.Reads-b.Reads))
	l.add("nvm.page_programs", float64(s.Programs-b.Programs))
	l.add("nvm.block_erases", float64(s.Erases-b.Erases))
	l.add("nvm.replays", 1)
	l.add("nvm.channel_util_sum", s.ChannelUtilization)
	l.add("nvm.package_util_sum", s.PackageUtilization)
	l.add("nvm.bus_occupancy_sum", s.BusOccupancy)
	l.add("ssd.sim_elapsed_s", elapsed)
	l.add("ssd.data_bytes", float64(res.DataBytes-st.base.DataBytes))
	if b, ok := st.cl.inner.(interface{ Busy() sim.Time }); ok {
		l.add("interconnect.busy_s", b.Busy().Seconds())
		l.add("interconnect.span_s", res.Elapsed.Seconds())
	}
	if st.ftl != nil {
		fs, b := st.ftl.Stats(), st.baseFTL
		l.add("ftl.gc_runs", float64(fs.GCRuns-b.GCRuns))
		l.add("ftl.relocated_pages", float64(fs.RelocatedPages-b.RelocatedPages))
		l.add("ftl.host_writes", float64(fs.HostWrites-b.HostWrites))
		l.add("ftl.nand_writes", float64(fs.NANDWrites-b.NANDWrites))
	}
}
