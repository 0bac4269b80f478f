package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"oocnvm/internal/check"
	"oocnvm/internal/experiment"
	"oocnvm/internal/fs"
	"oocnvm/internal/interconnect"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/ooc"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// workload is one closed batch the benchmark times.
type workload struct {
	name string
	// prepare generates one batch's inputs at seed and builds any stack it
	// runs on, with the observers h; it is what setup_s times. A non-nil
	// ledger times the layers it calls and builds traced stacks.
	prepare func(seed uint64, h hooks, l *ledger) (batch, error)
	// hooks are the observers on the timed run; checkHooks those on the
	// reference pass, which may add checks the timed run leaves out.
	hooks, checkHooks hooks
}

// batch is one prepared workload instance; run executes it once, traced
// when l is non-nil.
type batch interface {
	run(l *ledger) outcome
}

// outcome is what one batch did and whether it was right.
type outcome struct {
	ops      int64 // operations attempted: cells on figures, requests elsewhere
	failed   int64 // operations that errored or broke a check
	pageOps  int64 // simulated page reads, programs and erases
	prints   []cellPrint
	problems []string

	headlineErrPct float64         // figures only
	attrib         *attrib.Summary // when the attribution recorder was on
	spans, dropped int64           // tracer totals when the probe was on
}

// fail records a failed operation with its reason.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{
	{name: "figures", prepare: prepareFigures},
	{name: "gc-steady", prepare: prepareGCSteady, checkHooks: hooks{oracle: true, attrib: true}},
	{name: "observed", prepare: prepareObserved, hooks: allHooks, checkHooks: allHooks},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want figures, gc-steady or observed)", name)
}

// workers is the matrix worker count: at most two, and no more than the
// CPUs the process may use.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// --- figures ---------------------------------------------------------------

// figuresOptions sets up the Table 2 × four cell types matrix every figure
// of the evaluation and the §7 headlines are derived from, at the figure
// benchmarks' scale.
func figuresOptions(seed uint64) experiment.Options {
	opt := experiment.DefaultOptions()
	opt.Workload = ooc.Workload{MatrixBytes: 96 << 20, PanelBytes: 8 << 20, Applications: 2}
	opt.Seed = seed
	opt.Workers = workers()
	return opt
}

type figCell struct {
	cfg    experiment.Config
	cell   nvm.CellType
	ops    []trace.BlockOp
	window int64
}

type figuresBatch struct {
	opt   experiment.Options
	cells []figCell
}

// prepareFigures generates the matrix's inputs: the workload's POSIX trace
// and every cell's block trace. The traced run replays them; Matrix, which
// takes only Options, regenerates them inside the timed region, where they
// cost well under 1% of it.
func prepareFigures(seed uint64, _ hooks, l *ledger) (batch, error) {
	b := &figuresBatch{opt: figuresOptions(seed)}
	if err := posixTrace(b.opt.Workload, l); err != nil {
		return nil, err
	}
	for _, cfg := range experiment.Table2() {
		for _, cell := range nvm.CellTypes {
			ops, window, err := blockTrace(cfg, cell, b.opt, l)
			if err != nil {
				return nil, err
			}
			b.cells = append(b.cells, figCell{cfg, cell, ops, window})
		}
	}
	return b, nil
}

func posixTrace(w ooc.Workload, l *ledger) error {
	start := time.Now()
	posix, err := w.PosixTrace()
	if err != nil {
		return err
	}
	l.add("ooc.trace_s", time.Since(start).Seconds())
	l.add("ooc.posix_ops", float64(len(posix)))
	return nil
}

// blockTrace runs the configuration's file system over the workload. The
// call regenerates the POSIX trace itself, which posixTrace shows to be
// negligible.
func blockTrace(cfg experiment.Config, cell nvm.CellType, opt experiment.Options, l *ledger) ([]trace.BlockOp, int64, error) {
	start := time.Now()
	ops, window, err := experiment.BlockTrace(cfg, cell, opt)
	if err != nil {
		return nil, 0, err
	}
	l.add("fs.transform_s", time.Since(start).Seconds())
	l.add("fs.block_ops", float64(len(ops)))
	var bytes int64
	for _, op := range ops {
		bytes += op.Size
	}
	l.add("fs.block_bytes", float64(bytes))
	return ops, window, nil
}

func (b *figuresBatch) run(l *ledger) outcome {
	if l != nil {
		return b.traced(l)
	}
	var o outcome
	o.ops = int64(len(b.cells))
	ms, err := experiment.Matrix(experiment.Table2(), nvm.CellTypes, b.opt)
	if err != nil {
		o.fail(o.ops, "matrix: %v", err)
		return o
	}
	for _, m := range ms {
		env := check.NewEnvelope(b.opt.Geometry, nvm.Params(m.Cell), m.Config.Bus, m.Config.BuildLink())
		o.addCell(m, env.Check(m.Achieved))
	}
	o.headline(ms)
	return o
}

// addCell folds one matrix cell into the outcome.
func (o *outcome) addCell(m experiment.Measurement, vs []check.Violation) {
	name := fmt.Sprintf("%s/%s", m.Config.Name, m.Cell)
	o.prints = append(o.prints, cellPrint{name, fingerprint(m.Achieved, m.MediaCapableMBps)})
	o.pageOps += pageOps(m.Achieved.Stats)
	if len(vs) > 0 {
		o.fail(1, "%s: %v", name, vs[0])
	}
}

// headline sets the mean absolute relative error of the four §7 headline
// ratios against the paper's +108%, +52%, +250% and 10.3x.
func (o *outcome) headline(ms []experiment.Measurement) {
	s, err := experiment.Summarize(ms, nvm.CellTypes)
	if err != nil {
		o.fail(int64(len(ms)), "summarize: %v", err)
		return
	}
	pairs := [][2]float64{
		{s.CNLOverION, 1.08}, {s.UFSOverCNL, 0.52}, {s.HWOverUFS, 2.50}, {s.MeanTotalOverION, 10.3},
	}
	var sum float64
	for _, p := range pairs {
		sum += math.Abs(p[0]-p[1]) / p[1]
	}
	o.headlineErrPct = 100 * sum / float64(len(pairs))
}

// traced rebuilds every cell from the public constructors, as Matrix does,
// on the same number of workers, with the layer timers in place.
func (b *figuresBatch) traced(l *ledger) outcome {
	ms := make([]experiment.Measurement, len(b.cells))
	errs := make([][]string, len(b.cells))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < b.opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(b.cells) {
					return
				}
				ms[k], errs[k] = b.tracedCell(b.cells[k], l)
			}
		}()
	}
	wg.Wait()
	var o outcome
	o.ops = int64(len(b.cells))
	for k, m := range ms {
		var vs []check.Violation
		for _, e := range errs[k] {
			vs = append(vs, check.Violation{Kind: "cell", Detail: e})
		}
		o.addCell(m, vs)
	}
	o.headline(ms)
	return o
}

// tracedCell replays one cell on its own link and, for the bandwidth
// remaining of Figures 7b and 8b, on an infinitely fast host path.
func (b *figuresBatch) tracedCell(c figCell, l *ledger) (experiment.Measurement, []string) {
	m := experiment.Measurement{Config: c.cfg, Cell: c.cell}
	sp := spec{cfg: c.cfg, cell: c.cell, geo: b.opt.Geometry, preload: b.opt.Workload.MatrixBytes,
		window: c.window, seed: b.opt.Seed}
	st, err := build(sp, hooks{}, l)
	if err != nil {
		return m, []string{err.Error()}
	}
	var failed int64
	m.Achieved, failed = st.replay(c.ops, l)
	l.addResult(st, m.Achieved)
	problems := st.problems(m.Achieved)
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed requests: %v", failed, st.drive.Err()))
	}
	sp.link = interconnect.Infinite{}
	capable, err := build(sp, hooks{}, l)
	if err != nil {
		return m, append(problems, err.Error())
	}
	res, failed := capable.replay(c.ops, l)
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed requests on the infinite host path", failed))
	}
	m.MediaCapableMBps = res.MBps()
	return m, problems
}

// --- gc-steady -------------------------------------------------------------

// gcGeometry is the gc-steady device: 8 channels × 2 packages × 2 dies ×
// 16 blocks per plane, 512 MiB of MLC.
func gcGeometry() nvm.Geometry {
	return nvm.Geometry{Channels: 8, PackagesPerChannel: 2, DiesPerPackage: 2, BlocksPerPlane: 16}
}

// Preconditioning and the timed replay each write about 1.2x the device
// capacity per round of check.DefaultParams.
const (
	gcPreconditionRounds = 2
	gcTimedRounds        = 4
)

type replayBatch struct {
	name string // the cell's name, config/cell
	st   *stack
	ops  []trace.BlockOp
}

// prepareGCSteady builds a CNL-EXT4 stack on MLC and preconditions the
// device with mixed writes and trims until garbage collection runs in
// steady state. Nothing is preloaded: the FTL never picks a preloaded
// superblock as a GC victim, so overwriting a preloaded extent leaks its
// space until the free pool runs dry.
func prepareGCSteady(seed uint64, h hooks, l *ledger) (batch, error) {
	geo, cell := gcGeometry(), nvm.MLC
	cp := nvm.Params(cell)
	p := check.DefaultParams(geo.Capacity(cp), cp.PageSize)
	start := time.Now()
	rng := sim.NewRNG(seed)
	pre, timed := p, p
	pre.Ops *= gcPreconditionRounds
	timed.Ops *= gcTimedRounds
	preOps := check.Generate(pre, rng)
	ops := check.Generate(timed, rng)
	l.add("check.generate_s", time.Since(start).Seconds())
	cfg := experiment.CNL(fs.Ext4())
	st, err := build(spec{cfg: cfg, cell: cell, geo: geo, seed: seed}, h, l)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, failed := st.replay(preOps, nil); failed > 0 {
		return nil, fmt.Errorf("gc-steady: %d preconditioning requests failed: %v", failed, st.drive.Err())
	}
	st.mark()
	l.add("ftl.precondition_s", time.Since(start).Seconds())
	return &replayBatch{name: cfg.Name + "/" + cell.String(), st: st, ops: ops}, nil
}

// --- observed --------------------------------------------------------------

// observedWorkload is the OoC workload at the paper's default scale with a
// Ψ checkpoint after each application pair, so it writes as well as reads.
func observedWorkload() ooc.Workload {
	w := ooc.DefaultWorkload()
	w.PsiBytes = 64 << 20
	return w
}

// prepareObserved generates the OoC trace, runs it through EXT4 and builds
// one CNL-EXT4 stack on TLC with the observers h.
func prepareObserved(seed uint64, h hooks, l *ledger) (batch, error) {
	opt := experiment.DefaultOptions()
	opt.Workload = observedWorkload()
	opt.Seed = seed
	if err := posixTrace(opt.Workload, l); err != nil {
		return nil, err
	}
	cfg, cell := experiment.CNL(fs.Ext4()), nvm.TLC
	ops, window, err := blockTrace(cfg, cell, opt, l)
	if err != nil {
		return nil, err
	}
	st, err := build(spec{cfg: cfg, cell: cell, geo: opt.Geometry, preload: opt.Workload.MatrixBytes,
		window: window, seed: seed}, h, l)
	if err != nil {
		return nil, err
	}
	return &replayBatch{name: cfg.Name + "/" + cell.String(), st: st, ops: ops}, nil
}

// run replays the batch's trace once on its stack.
func (b *replayBatch) run(l *ledger) outcome {
	st := b.st
	var o outcome
	o.ops = int64(len(b.ops))
	res, failed := st.replay(b.ops, l)
	l.addResult(st, res)
	if failed > 0 {
		o.fail(failed, "%s: %d failed requests, first: %v", b.name, failed, st.drive.Err())
	}
	if ps := st.problems(res); len(ps) > 0 {
		o.fail(min(int64(len(ps)), o.ops-o.failed), "%s: %d broken checks, first: %s", b.name, len(ps), ps[0])
	}
	o.pageOps = st.pageOps(res)
	o.prints = []cellPrint{{b.name, fingerprint(res)}}
	if st.rec != nil {
		sum := st.rec.Summary()
		o.attrib = &sum
		o.prints = append(o.prints, cellPrint{b.name + " attribution", fingerprint(sum)})
	}
	if st.col != nil {
		o.spans, o.dropped = int64(st.col.Tr.Len()), st.col.Tr.Dropped()
	}
	return o
}
