package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"oocnvm/internal/obs/attrib"
)

// ladderRungs are the observer sets of the on-cost ladder: none, each
// family alone, then all of them. A rung's cost is its replay time minus
// the bare rung's.
var ladderRungs = []struct {
	metric string
	h      hooks
}{
	{"", hooks{}},
	{"obs.probe_cost_s", hooks{probe: true}},
	{"timeseries.cost_s", hooks{sampler: true}},
	{"attrib.cost_s", hooks{attrib: true}},
	{"check.oracle_cost_s", hooks{oracle: true}},
	{"hostperf.cost_s", hooks{host: true}},
	{"obs.all_cost_s", allHooks},
}

// ladderReps is how many times each rung is timed; the rungs take turns so
// drift on a shared host spreads over all of them.
const ladderReps = 5

// runLadder times the workload's batch at seed under every rung and
// returns each rung's median cost over the bare rung. Observers must not
// change what is simulated, so every rung's result fingerprint must equal
// the bare rung's.
func runLadder(w workload, seed uint64, t *tally) (map[string]float64, error) {
	walls := make([][]float64, len(ladderRungs))
	var bare []cellPrint
	for rep := 0; rep < ladderReps; rep++ {
		for i, r := range ladderRungs {
			b, err := w.prepare(seed, r.h, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: ladder setup: %w", w.name, err)
			}
			runtime.GC()
			start := time.Now()
			o := b.run(nil)
			walls[i] = append(walls[i], time.Since(start).Seconds())
			t.add(o)
			if bare == nil {
				bare = resultOnly(o.prints)
			} else {
				t.mismatch(o, samePrints(bare, resultOnly(o.prints)), fmt.Sprintf("ladder rung %q against no observers", r.metric))
			}
		}
	}
	base := median(walls[0])
	costs := make(map[string]float64, len(ladderRungs)-1)
	for i, r := range ladderRungs[1:] {
		costs[r.metric] = median(walls[i+1]) - base
	}
	return costs, nil
}

// attribComponents lists the attribution taxonomy.
func attribComponents() []attrib.Component {
	out := make([]attrib.Component, attrib.NumComponents)
	for i := range out {
		out[i] = attrib.Component(i)
	}
	return out
}

// attribMetric names a component's share of the total simulated latency,
// e.g. attrib.die_service_frac.
func attribMetric(c attrib.Component) string {
	return "attrib." + strings.ReplaceAll(c.String(), "-", "_") + "_frac"
}

// resultOnly drops the attribution fingerprint, leaving what every set of
// observers must agree on.
func resultOnly(ps []cellPrint) []cellPrint { return ps[:1] }
