package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"oocnvm/internal/check"
	"oocnvm/internal/experiment"
	"oocnvm/internal/fs"
	"oocnvm/internal/ftl"
	"oocnvm/internal/interconnect"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/pool"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
)

// The optional interfaces the drive and the instrumentation helpers probe a
// translator or a link for.
var (
	translatorProbes = map[string]reflect.Type{
		"OpPooler":       reflect.TypeOf((*ssd.OpPooler)(nil)).Elem(),
		"BlockRetirer":   reflect.TypeOf((*ssd.BlockRetirer)(nil)).Elem(),
		"MediaTap":       reflect.TypeOf((*interface{ MediaTap() nvm.MediaTap })(nil)).Elem(),
		"SetMappingTap":  reflect.TypeOf((*interface{ SetMappingTap(nvm.MappingTap) })(nil)).Elem(),
		"SetProbe":       reflect.TypeOf((*interface{ SetProbe(obs.Probe) })(nil)).Elem(),
		"RegisterSeries": reflect.TypeOf((*interface{ RegisterSeries(*timeseries.Sampler) })(nil)).Elem(),
	}
	linkProbes = map[string]reflect.Type{
		"SetProbe": reflect.TypeOf((*interface{ SetProbe(obs.Probe) })(nil)).Elem(),
		"Busy":     reflect.TypeOf((*interface{ Busy() sim.Time })(nil)).Elem(),
	}
)

func smallGeo() nvm.Geometry {
	return nvm.Geometry{Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, BlocksPerPlane: 8}
}

func newFTL(t *testing.T, cfg ftl.Config) *ftl.FTL {
	t.Helper()
	f, err := ftl.New(smallGeo(), nvm.Params(nvm.MLC), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTimedTranslatorHasEveryProbedInterface checks that wrapping never
// hides an interface the inner translator offers.
func TestTimedTranslatorHasEveryProbedInterface(t *testing.T) {
	inners := map[string]ssd.Translator{
		"ftl":     newFTL(t, ftl.Config{}),
		"direct":  ssd.NewDirect(smallGeo(), nvm.Params(nvm.MLC)),
		"checked": check.Wrap(newFTL(t, ftl.Config{}), 1),
	}
	wrapped := reflect.TypeOf(&timedTranslator{})
	for name, inner := range inners {
		for probe, iface := range translatorProbes {
			if reflect.TypeOf(inner).Implements(iface) && !wrapped.Implements(iface) {
				t.Errorf("%s offers %s but the wrapper does not", name, probe)
			}
		}
	}
}

type countingTap struct{ writes, reads, trims int }

func (c *countingTap) MapWrite(lpn, ppn int64) { c.writes++ }
func (c *countingTap) MapRead(lpn, ppn int64)  { c.reads++ }
func (c *countingTap) MapTrim(lpn int64)       { c.trims++ }

// TestTimedTranslatorForwards checks that every optional call reaches the
// inner FTL and that the translation calls are timed and counted.
func TestTimedTranslatorForwards(t *testing.T) {
	f := newFTL(t, ftl.Config{})
	tt := &timedTranslator{inner: f}
	ps := tt.PageSize()

	tap := &countingTap{}
	if !nvm.InstrumentMapping(tt, tap) {
		t.Fatal("SetMappingTap not offered")
	}
	col := obs.NewCollector()
	if !obs.Instrument(tt, col) {
		t.Fatal("SetProbe not offered")
	}
	ts := timeseries.NewSampler(sim.Microsecond, 0)
	if !timeseries.Instrument(tt, ts) {
		t.Fatal("RegisterSeries not offered")
	}
	var p pool.Buffers[nvm.PageOp]
	tt.SetOpPool(&p)

	tt.ReleaseOps(tt.Write(0, 4*ps))
	tt.ReleaseOps(tt.Read(0, 2*ps))
	if tap.writes != 4 || tap.reads != 2 {
		t.Errorf("tap saw %d writes and %d reads, want 4 and 2", tap.writes, tap.reads)
	}
	if got := col.Reg.Counter("ftl.host_writes").Value(); got != 4 {
		t.Errorf("probe counted %d host writes, want 4", got)
	}
	found := false
	for _, name := range ts.SeriesNames() {
		found = found || strings.HasPrefix(name, "ftl.")
	}
	if !found {
		t.Errorf("no ftl series registered: %v", ts.SeriesNames())
	}
	if p.Gets() != 2 || p.Reuses() != 1 {
		t.Errorf("op pool served %d gets with %d reuses, want 2 and 1", p.Gets(), p.Reuses())
	}
	if tt.calls != 2 || tt.spent <= 0 {
		t.Errorf("wrapper counted %d calls in %v, want 2 calls in positive time", tt.calls, tt.spent)
	}
	if tt.CapacityBytes() != f.CapacityBytes() {
		t.Errorf("capacity %d, want %d", tt.CapacityBytes(), f.CapacityBytes())
	}
	if got, want := tt.RetireBlock(0), newFTLWithWrite(t, ps).RetireBlock(0); !reflect.DeepEqual(got.OK, want.OK) || len(got.Ops) != len(want.Ops) {
		t.Errorf("RetireBlock = OK %v with %d ops, want OK %v with %d ops", got.OK, len(got.Ops), want.OK, len(want.Ops))
	}

	if tt.MediaTap() != nil {
		t.Error("MediaTap of a volatile FTL is not nil")
	}
	durable := &timedTranslator{inner: newFTL(t, ftl.Config{Durable: ftl.DurableConfig{Enabled: true}})}
	if durable.MediaTap() == nil {
		t.Error("MediaTap of a durable FTL not forwarded")
	}
	if got := (&timedTranslator{inner: ssd.NewDirect(smallGeo(), nvm.Params(nvm.MLC))}).MediaTap(); got != nil {
		t.Error("MediaTap of Direct is not nil")
	}
}

// newFTLWithWrite is the twin of TestTimedTranslatorForwards's FTL state
// that RetireBlock is compared on.
func newFTLWithWrite(t *testing.T, ps int64) *ftl.FTL {
	f := newFTL(t, ftl.Config{})
	f.Write(0, 4*ps)
	f.Read(0, 2*ps)
	return f
}

// TestCountedLinkForwards checks the link wrapper counts traffic, forwards
// probes, and offers Busy exactly when the inner link does.
func TestCountedLinkForwards(t *testing.T) {
	line := interconnect.NewPCIeLine(interconnect.PCIeConfig{Gen: interconnect.PCIeGen2, Lanes: 8, Bridged: true})
	l, c := countLink(line)
	for probe, iface := range linkProbes {
		if !reflect.TypeOf(l).Implements(iface) {
			t.Errorf("wrapped line lacks %s", probe)
		}
	}
	col := obs.NewCollector()
	if !obs.Instrument(l, col) {
		t.Fatal("SetProbe not offered")
	}
	end := l.Transfer(0, 4096)
	l.Transfer(end, 4096)
	if c.transfers != 2 || c.bytes != 8192 {
		t.Errorf("counted %d transfers of %d bytes, want 2 of 8192", c.transfers, c.bytes)
	}
	if col.Tr.Len() != 2 {
		t.Errorf("inner line emitted %d spans, want 2", col.Tr.Len())
	}
	if b := l.(interface{ Busy() sim.Time }); b.Busy() != line.Busy() || line.Busy() <= 0 {
		t.Errorf("Busy %v, inner %v", b.Busy(), line.Busy())
	}
	if l.BytesPerSec() != line.BytesPerSec() || l.RequestOverhead() != line.RequestOverhead() {
		t.Error("rate or overhead not forwarded")
	}

	inf, _ := countLink(interconnect.Infinite{})
	if _, ok := inf.(interface{ Busy() sim.Time }); ok {
		t.Error("wrapped Infinite link offers Busy")
	}
	chain, _ := countLink(experiment.IONGPFS().BuildLink())
	if _, ok := chain.(interface{ Busy() sim.Time }); !ok {
		t.Error("wrapped ION chain lacks Busy")
	}
}

// TestTracedStackSimulatesTheSame replays one mixed trace through an
// untraced and a traced stack with every observer on and requires equal
// fingerprints of the result and the attribution summary.
func TestTracedStackSimulatesTheSame(t *testing.T) {
	cp := nvm.Params(nvm.MLC)
	p := check.DefaultParams(smallGeo().Capacity(cp), cp.PageSize)
	p.Ops *= 3
	ops := check.Generate(p, sim.NewRNG(5))
	for _, cfg := range []experiment.Config{experiment.CNL(fs.Ext4()), experiment.CNLUFS(), experiment.IONGPFS()} {
		sp := spec{cfg: cfg, cell: nvm.MLC, geo: smallGeo(), seed: 5}
		var prints [][]cellPrint
		for _, l := range []*ledger{nil, newLedger()} {
			st, err := build(sp, allHooks, l)
			if err != nil {
				t.Fatal(err)
			}
			b := &replayBatch{name: cfg.Name, st: st, ops: ops}
			o := b.run(l)
			if o.failed > 0 {
				t.Fatalf("%s: %d failed: %v", cfg.Name, o.failed, o.problems)
			}
			prints = append(prints, o.prints)
		}
		if d := samePrints(prints[0], prints[1]); len(d) > 0 || len(prints[0]) != 2 {
			t.Errorf("%s: traced run differs: %v", cfg.Name, d)
		}
	}
}

// TestSameSeedSameFingerprint runs every workload's reference pass twice at
// one seed and once at another.
func TestSameSeedSameFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every workload three times")
	}
	for _, w := range workloads {
		runAt := func(seed uint64) []cellPrint {
			b, err := w.prepare(seed, w.checkHooks, nil)
			if err != nil {
				t.Fatal(err)
			}
			o := b.run(nil)
			if o.failed > 0 {
				t.Fatalf("%s: %d failed: %v", w.name, o.failed, o.problems)
			}
			return o.prints
		}
		a, b, c := runAt(7), runAt(7), runAt(8)
		if d := samePrints(a, b); len(d) > 0 {
			t.Errorf("%s: same seed, different fingerprints: %v", w.name, d)
		}
		if d := samePrints(a, c); len(d) == 0 {
			t.Errorf("%s: seeds 7 and 8 simulate the same", w.name)
		}
	}
}

const rawProfile = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          5   50000000: 1 2 3
          2   20000000: 4 2 3
          1   10000000: 5 6 3
          1   10000000: 7 3
          1   10000000: 8
          2   20000000: 9 10 11 3
          1   10000000: 12 13 2 3
          1   10000000: 14 2 3
Locations
     1: 0x4a4b06 M=1 oocnvm/internal/sim.(*IntervalSet).Add /src/internal/sim/interval.go:14:0 s=12
             oocnvm/internal/nvm.(*Device).markDie /src/internal/nvm/device.go:75:0 s=63
     2: 0x4a3f35 M=1 oocnvm/internal/nvm.(*Device).Submit /src/internal/nvm/device.go:300:0 s=290
     3: 0x4a5b44 M=1 main.main /src/perfbench/main.go:18:0 s=16
     4: 0x4b9673 M=1 runtime.mallocgc /go/src/runtime/malloc.go:16:0 s=9
     5: 0x4b9744 M=1 internal/runtime/maps.(*Map).getWithKeySmall /go/src/internal/runtime/maps/map.go:25:0 s=22
     6: 0x43a2aa M=1 oocnvm/internal/pool.(*Buffers[go.shape.struct { Op oocnvm/internal/nvm.Op }]).Get /src/internal/pool/pool.go:90:0 s=147
     7: 0x43a2ab M=1 sort.Ints /go/src/sort/sort.go:168:0 s=168
     8: 0x43a2ac M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1300:0 s=1290
     9: 0x43a2ad M=1 runtime.readMetrics /go/src/runtime/metrics.go:800:0 s=790
    10: 0x43a2ae M=1 runtime/metrics.Read /go/src/runtime/metrics/sample.go:46:0 s=40
    11: 0x43a2af M=1 oocnvm/internal/obs/hostperf.heapObjects /src/internal/obs/hostperf/sites.go:95:0 s=94
             oocnvm/internal/obs/hostperf.Enter /src/internal/obs/hostperf/sites.go:123:0 s=119
    12: 0x43a2b0 M=1 runtime.nanotime1 /go/src/runtime/sys_linux_amd64.s:50:0 s=40
             runtime.nanotime /go/src/runtime/time_nofake.go:33:0 s=32
             time.Now /go/src/time/time.go:1100:0 s=1090
    13: 0x43a2b1 M=1 main.(*timedTranslator).timed /src/perfbench/wrap.go:29:0 s=27
    14: 0x43a2b2 M=1 runtime.mapaccess2_fast64 /go/src/runtime/map_fast64.go:20:0 s=15
Mappings
1: 0x400000/0x4ba000/0x0 /tmp/perfbench 1335126f7997ad940d1bb0bb88fdf94d7613c1d2 [FN]
`

// TestFoldRaw checks the fold charges each sample to the right layer:
// inlined frames innermost first, runtime allocation and collection to the
// runtime, runtime work behind another standard-library package and map
// access to the caller.
func TestFoldRaw(t *testing.T) {
	got, err := foldRaw(strings.NewReader(rawProfile))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 5. / 14, "nvm": 1. / 14, "obs": 2. / 14, "runtime": 3. / 14, "other": 3. / 14}
	for _, l := range shareLayers {
		if got[l] != want[l] {
			t.Errorf("share %s = %v, want %v", l, got[l], want[l])
		}
	}
	if len(got) != len(shareLayers) {
		t.Errorf("fold has %d layers, want %d: %v", len(got), len(shareLayers), got)
	}
	if _, err := foldRaw(strings.NewReader("Samples:\nsamples/count cpu/nanoseconds\n   x   1: 1\n")); err == nil {
		t.Error("bad sample count parsed")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"oocnvm/internal/nvm.(*Device).schedule":                 "oocnvm/internal/nvm",
		"oocnvm/internal/experiment.Matrix.func1":                "oocnvm/internal/experiment",
		"runtime.mallocgc":                                       "runtime",
		"main.main":                                              "main",
		"slices.pdqsortOrdered[go.shape.int]":                    "slices",
		"oocnvm/internal/pool.(*Buffers[oocnvm/x.T]).Get":        "oocnvm/internal/pool",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "internal/runtime/maps",
		"oocnvm/internal/obs/attrib.(*Recorder).StartActivation": "oocnvm/internal/obs/attrib",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}

// TestReferenceCoversEveryWorkload checks the committed reference loads and
// has fingerprints for every workload.
func TestReferenceCoversEveryWorkload(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(ref.Workloads[w.name]) == 0 {
			t.Errorf("no reference fingerprints for %s", w.name)
		}
	}
	if n := len(ref.Workloads["figures"]); n != len(experiment.Table2())*len(nvm.CellTypes) {
		t.Errorf("figures reference has %d cells", n)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
