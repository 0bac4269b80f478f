// Command perfbench is the repository benchmark. It times three closed
// batches through the simulator's public API, checks that what they
// simulate is right, and prints every metric by name with its unit; the
// last line of its output is one JSON object with the verdict and the
// metrics. Build and run it from the root of a checkout with
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
//
// Workloads (the reference fingerprints in reference.json are taken at
// seed 42 with -write-reference):
//
//   - figures: one experiment.Matrix over Table 2 × the four cell types with
//     MeasureRemaining on, at 96 MiB × 2 applications, on at most two
//     workers. It is the single matrix Figures 7a/7b/8a/8b/9/10 and the §7
//     headlines are derived from: a read-only load on a preloaded FTL where
//     nvm scheduling and die/bus booking do most of the work.
//   - gc-steady: one CNL-EXT4 stack on a 512 MiB MLC device (8 channels × 2
//     packages × 2 dies × 16 blocks), preconditioned from empty with
//     2 rounds of check.DefaultParams traffic, then timed over 4 more
//     rounds (45% writes, 5% trims, 50% reads, 60/40 hot/cold, a sync
//     every 32 requests; about 4.8× the capacity written). The FTL's
//     program and GC path does much of the work.
//   - observed: one CNL-EXT4/TLC replay of the OoC trace at 512 MiB × 4
//     applications with a 64 MiB Ψ checkpoint per application pair, with
//     every observer family on: the obs probe and tracer, the time-series
//     sampler, the attribution recorder, the integrity oracle and hostperf.
//
// With --trace 0 it reports the end-to-end metrics, medians over as many
// batches as fit in --seconds of timed work; each batch is set up afresh,
// and setup_s is the median set-up time. With --trace 1 it runs the same
// untraced batches, then one traced batch rebuilt from the public
// constructors with layer timers around the translator and the link and
// the CPU profiler on, and reports the per-layer metrics. Every run also
// replays the workload at seed 42 with its checks on and compares the
// simulated fingerprints with reference.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics --trace 0 reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"ns_per_page_op", "ns"},
	{"alloc_bytes", "bytes"},
	{"allocs", "count"},
	{"peak_heap_bytes", "bytes"},
}

// perLayer are the metrics --trace 1 reports. A layer a workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ooc.trace_s", "s"}, {"ooc.posix_ops", "count"},
		{"fs.transform_s", "s"}, {"fs.block_ops", "count"}, {"fs.block_bytes", "bytes"},
		{"check.generate_s", "s"},
		{"ftl.new_s", "s"}, {"ftl.preload_s", "s"}, {"ftl.precondition_s", "s"},
		{"ftl.translate_s", "s"}, {"ftl.translate_calls", "count"}, {"ftl.translate_frac", "fraction"},
		{"ssd.direct_s", "s"}, {"ssd.direct_calls", "count"},
		{"ftl.gc_runs", "count"}, {"ftl.relocated_pages", "count"}, {"ftl.write_amp", "ratio"},
		{"nvm.self_s", "s"}, {"nvm.self_frac", "fraction"},
		{"nvm.page_reads", "count"}, {"nvm.page_programs", "count"}, {"nvm.block_erases", "count"},
		{"nvm.channel_util", "fraction"}, {"nvm.package_util", "fraction"}, {"nvm.bus_occupancy", "fraction"},
		{"ssd.requests", "count"}, {"ssd.failed_requests", "count"},
		{"ssd.sim_elapsed_s", "s"}, {"ssd.sim_mbps", "MB/s"},
		{"ssd.submit_us_p50", "us"}, {"ssd.submit_us_p99", "us"},
		{"cell_s_p50", "s"}, {"cell_s_p90", "s"},
		{"interconnect.transfers", "count"}, {"interconnect.bytes", "bytes"}, {"interconnect.busy_frac", "fraction"},
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "fraction"})
	}
	defs = append(defs,
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_cpu_s", "s"}, metricDef{"runtime.gc_cpu_frac", "fraction"},
	)
	for _, r := range ladderRungs[1:] {
		defs = append(defs, metricDef{r.metric, "s"})
	}
	defs = append(defs, metricDef{"obs.tracer_spans", "count"}, metricDef{"obs.tracer_dropped", "count"})
	for _, c := range attribComponents() {
		defs = append(defs, metricDef{attribMetric(c), "fraction"})
	}
	return append(defs,
		metricDef{"attrib.residual_ps", "ps"},
		metricDef{"trace.wall_s", "s"}, metricDef{"trace.overhead_s", "s"},
		metricDef{"failed_frac", "fraction"}, metricDef{"headline_err_pct", "%"},
	)
}()

// minIterations is the fewest timed batches a run makes, however long each
// takes, so every median has a middle; minSetups is the fewest set-ups
// setup_s is the median of, made up with untimed extra set-ups when the
// batches are few.
const (
	minIterations = 3
	minSetups     = 15
)

// tracedBatches is how many batches the traced run times; the per-layer
// figures are their means, trace.wall_s their median.
const tracedBatches = 3

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of the output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: figures, gc-steady or observed")
	seed := fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 10, "host seconds of timed batches to measure")
	traced := fl.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced run and reports per-layer metrics")
	writeRef := fl.String("write-reference", "", "write every workload's fingerprints at seed 42 to this file and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeReferences(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var t tally
	var defs []metricDef
	var values map[string]float64
	if *traced == 0 {
		defs = endToEnd
		values, err = untracedRun(w, *seed, *seconds, &t)
	} else {
		defs = perLayer
		values, err = tracedRun(w, *seed, *seconds, &t)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range t.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED:", p)
	}
	rep := report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d operations attempted, %d failed\n", w.name, *seed, t.attempted, t.failed)
	for _, d := range defs {
		v := values[d.name]
		rep.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(stdout, "  %-28s %16.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// tally counts operations and failures across every batch of a run.
type tally struct {
	attempted, failed int64
	problems          []string
}

func (t *tally) add(o outcome) {
	t.attempted += o.ops
	t.failed += min(o.failed, o.ops)
	t.problems = append(t.problems, o.problems...)
}

// mismatch records that a batch's fingerprints disagree with what they must
// equal. A figures batch fails the cells that differ; a replay has one
// fingerprint for all its requests, so all of them fail.
func (t *tally) mismatch(o outcome, diffs []string, what string) {
	if len(diffs) == 0 {
		return
	}
	n := o.ops
	if int64(len(o.prints)) == o.ops {
		n = int64(len(diffs))
	}
	t.failed = min(t.failed+n, t.attempted)
	t.problems = append(t.problems, fmt.Sprintf("%s: %d fingerprints differ, first: %s", what, len(diffs), diffs[0]))
}

// iteration is one timed batch.
type iteration struct {
	setupS float64
	cost   hostCost
	out    outcome
}

// measure sets up and times untraced batches at seed until --seconds of
// timed work are done (at least minIterations), checking every batch
// simulates what the first did. It returns the batches and every set-up
// time it took.
func measure(w workload, seed uint64, seconds float64, t *tally) ([]iteration, []float64, error) {
	var its []iteration
	var timed float64
	for len(its) < minIterations || timed < seconds {
		b, setupS, err := setUp(w, seed)
		if err != nil {
			return nil, nil, err
		}
		it := iteration{setupS: setupS}
		it.cost = timeRegion(func() { it.out = b.run(nil) })
		runtime.KeepAlive(b)
		t.add(it.out)
		if len(its) > 0 {
			t.mismatch(it.out, samePrints(its[0].out.prints, it.out.prints), fmt.Sprintf("batch %d against batch 0", len(its)))
		}
		its = append(its, it)
		timed += it.cost.wallS
	}
	setups := pick(its, func(it iteration) float64 { return it.setupS })
	for len(setups) < minSetups {
		_, setupS, err := setUp(w, seed)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setupS)
	}
	return its, setups, nil
}

// setUp prepares one untraced batch and times it.
func setUp(w workload, seed uint64) (batch, float64, error) {
	start := time.Now()
	b, err := w.prepare(seed, w.hooks, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	return b, time.Since(start).Seconds(), nil
}

func pick(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

func untracedRun(w workload, seed uint64, seconds float64, t *tally) (map[string]float64, error) {
	its, setups, err := measure(w, seed, seconds, t)
	if err != nil {
		return nil, err
	}
	if err := referencePass(w, t); err != nil {
		return nil, err
	}
	med := func(f func(iteration) float64) float64 { return median(pick(its, f)) }
	return map[string]float64{
		"setup_s": median(setups),
		"wall_s":  med(func(it iteration) float64 { return it.cost.wallS }),
		"cpu_s":   med(func(it iteration) float64 { return it.cost.cpuS }),
		"ns_per_page_op": med(func(it iteration) float64 {
			return it.cost.wallS * 1e9 / float64(max(it.out.pageOps, 1))
		}),
		"alloc_bytes":     med(func(it iteration) float64 { return it.cost.allocBytes }),
		"allocs":          med(func(it iteration) float64 { return it.cost.allocs }),
		"peak_heap_bytes": med(func(it iteration) float64 { return it.cost.peakHeap }),
	}, nil
}

// referencePass replays the workload at the reference seed with its checks
// on and compares the fingerprints with the committed reference.
func referencePass(w workload, t *tally) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	b, err := w.prepare(refSeed, w.checkHooks, nil)
	if err != nil {
		return fmt.Errorf("%s: reference setup: %w", w.name, err)
	}
	o := b.run(nil)
	t.add(o)
	t.mismatch(o, diffPrints(o.prints, ref.Workloads[w.name]), "reference seed against reference.json")
	return nil
}

// writeReferences records the reference pass of every workload.
func writeReferences(path string) error {
	prints := make(map[string][]cellPrint)
	for _, w := range workloads {
		b, err := w.prepare(refSeed, w.checkHooks, nil)
		if err != nil {
			return err
		}
		o := b.run(nil)
		if o.failed > 0 {
			return fmt.Errorf("%s: %d failed operations: %s", w.name, o.failed, strings.Join(o.problems, "; "))
		}
		prints[w.name] = o.prints
	}
	return writeReference(path, prints)
}

func tracedRun(w workload, seed uint64, seconds float64, t *tally) (map[string]float64, error) {
	its, _, err := measure(w, seed, seconds, t)
	if err != nil {
		return nil, err
	}
	// The traced batches are all set up first, so the profile covers only
	// their runs; the ledger's sums become per-batch means.
	l := newLedger()
	bs := make([]batch, tracedBatches)
	for i := range bs {
		if bs[i], err = w.prepare(seed, w.hooks, l); err != nil {
			return nil, fmt.Errorf("%s: traced setup: %w", w.name, err)
		}
	}
	var o outcome
	var tracedWalls []float64
	shares, err := profileCPU(func() {
		for _, b := range bs {
			start := time.Now()
			o = b.run(l)
			tracedWalls = append(tracedWalls, time.Since(start).Seconds())
			t.add(o)
			t.mismatch(o, samePrints(its[0].out.prints, o.prints), "traced batch against untraced batch")
		}
	})
	if err != nil {
		return nil, err
	}
	runtime.KeepAlive(bs)

	v := make(map[string]float64)
	for k, x := range l.v {
		v[k] = x / tracedBatches
	}
	if w.name == "observed" {
		costs, err := runLadder(w, seed, t)
		if err != nil {
			return nil, err
		}
		for k, x := range costs {
			v[k] = x
		}
	}
	if err := referencePass(w, t); err != nil {
		return nil, err
	}

	replayS := v["ftl.translate_s"] + v["ssd.direct_s"] + v["nvm.self_s"]
	if replayS > 0 {
		v["ftl.translate_frac"] = v["ftl.translate_s"] / replayS
		v["nvm.self_frac"] = v["nvm.self_s"] / replayS
	}
	if hw := v["ftl.host_writes"]; hw > 0 {
		v["ftl.write_amp"] = v["ftl.nand_writes"] / hw
	}
	if n := v["nvm.replays"]; n > 0 {
		v["nvm.channel_util"] = v["nvm.channel_util_sum"] / n
		v["nvm.package_util"] = v["nvm.package_util_sum"] / n
		v["nvm.bus_occupancy"] = v["nvm.bus_occupancy_sum"] / n
	}
	if e := v["ssd.sim_elapsed_s"]; e > 0 {
		v["ssd.sim_mbps"] = v["ssd.data_bytes"] / e / 1e6
	}
	if s := v["interconnect.span_s"]; s > 0 {
		v["interconnect.busy_frac"] = v["interconnect.busy_s"] / s
	}
	v["ssd.requests"] = float64(len(l.submit)) / tracedBatches
	v["ssd.failed_requests"] = float64(o.failed)
	v["ssd.submit_us_p50"] = quantile(l.submit, 0.5) / 1e3
	v["ssd.submit_us_p99"] = quantile(l.submit, 0.99) / 1e3
	v["cell_s_p50"] = quantile(l.replays, 0.5)
	v["cell_s_p90"] = quantile(l.replays, 0.9)
	for k, x := range shares {
		v["cpu_share."+k] = x
	}
	med := func(f func(iteration) float64) float64 { return median(pick(its, f)) }
	untracedWall := med(func(it iteration) float64 { return it.cost.wallS })
	v["runtime.gc_cycles"] = med(func(it iteration) float64 { return it.cost.gcCycles })
	v["runtime.gc_cpu_s"] = med(func(it iteration) float64 { return it.cost.gcCPUS })
	v["runtime.gc_cpu_frac"] = med(func(it iteration) float64 { return it.cost.gcCPUS / max(it.cost.cpuS, 1e-9) })
	v["obs.tracer_spans"] = float64(o.spans)
	v["obs.tracer_dropped"] = float64(o.dropped)
	if o.attrib != nil {
		for _, c := range attribComponents() {
			if o.attrib.TotalLatency > 0 {
				v[attribMetric(c)] = float64(o.attrib.Totals[c]) / float64(o.attrib.TotalLatency)
			}
		}
		v["attrib.residual_ps"] = float64(o.attrib.MaxResidual)
	}
	v["headline_err_pct"] = o.headlineErrPct
	v["trace.wall_s"] = median(tracedWalls)
	v["trace.overhead_s"] = v["trace.wall_s"] - untracedWall
	v["failed_frac"] = float64(t.failed) / float64(max(t.attempted, 1))
	return v, nil
}
