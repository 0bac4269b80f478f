package nvm

import (
	"fmt"
	"slices"
	"testing"

	"oocnvm/internal/fault"
	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
)

// spanLog is a probe that keeps every die and bus span by channel and die,
// the raw material of an independent busy union.
type spanLog struct {
	obs.Nop
	die map[[2]int][][2]sim.Time // (channel, die) -> spans
	bus map[int][][2]sim.Time    // channel -> spans
	n   int                      // spans kept
	rr  int                      // read-retry spans among them
}

func (l *spanLog) Enabled() bool { return true }

func (l *spanLog) Span(layer, track, name string, start, end sim.Time, attrs ...obs.Attr) {
	var c, die int
	if _, err := fmt.Sscanf(track, "ch%d/die%d", &c, &die); err == nil {
		l.die[[2]int{c, die}] = append(l.die[[2]int{c, die}], [2]sim.Time{start, end})
		l.n++
		if name == "read-retry" {
			l.rr++
		}
	} else if _, err := fmt.Sscanf(track, "ch%d/bus", &c); err == nil {
		l.bus[c] = append(l.bus[c], [2]sim.Time{start, end})
		l.n++
	}
}

// union returns the covered length of the spans, merged from scratch.
func union(spans [][2]sim.Time) sim.Time {
	s := slices.Clone(spans)
	slices.SortFunc(s, func(a, b [2]sim.Time) int { return int(a[0] - b[0]) })
	var total sim.Time
	var cur [2]sim.Time
	for i, v := range s {
		switch {
		case i == 0:
			cur = v
		case v[0] <= cur[1]:
			cur[1] = max(cur[1], v[1])
		default:
			total += cur[1] - cur[0]
			cur = v
		}
	}
	if len(s) > 0 {
		total += cur[1] - cur[0]
	}
	return total
}

// nopMedia is a durable media tap that only switches on the erase barrier.
type nopMedia struct{}

func (nopMedia) MediaProgram(PageOp, bool) {}
func (nopMedia) MediaErase(PageOp, bool)   {}

// TestCoverSetsMatchProbeUnion rebuilds every channel's and package's busy
// union from the probe's die and bus spans and requires the folded cover
// sets to report exactly the same utilization. It runs the device in cache
// mode, with read-retry faults, behind the durable erase barrier, and with
// the non-monotone issue instants a drive's retirement recovery produces
// (a resubmission at one request's end, then the next host request issued
// earlier). A mark below a set's watermark panics in IntervalSet.Add.
func TestCoverSetsMatchProbeUnion(t *testing.T) {
	cases := []struct {
		name           string
		cell           CellType
		cache, durable bool
		fault          string
	}{
		{"sync", MLC, false, false, "none"},
		{"cache", MLC, true, false, "none"},
		{"retry", TLC, false, false, "eol"},
		{"retry-cache", TLC, true, false, "eol"},
		{"durable", MLC, false, true, "none"},
		{"all", TLC, true, true, "eol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			geo := Geometry{Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 2, BlocksPerPlane: 8}
			cell := Params(tc.cell)
			d, err := NewDevice(geo, cell, ONFi3SDR(), &slowLink{bps: 4e9}, 3)
			if err != nil {
				t.Fatal(err)
			}
			log := &spanLog{die: map[[2]int][][2]sim.Time{}, bus: map[int][][2]sim.Time{}}
			d.SetProbe(log)
			if tc.cache {
				d.EnableCacheMode()
			}
			if tc.durable {
				d.SetMediaTap(nopMedia{})
			}
			prof, err := fault.ForName(tc.fault)
			if err != nil {
				t.Fatal(err)
			}
			if prof.Enabled() {
				inj, err := fault.New(FaultConfig(geo, cell, prof, 3))
				if err != nil {
					t.Fatal(err)
				}
				d.SetFaults(inj)
			}

			rng := sim.NewRNG(11)
			pages := geo.Pages(cell)
			var host, last sim.Time
			var ops []PageOp
			peak := 0
			for req := 0; req < 600; req++ {
				ops = ops[:0]
				for n := 1 + rng.Intn(24); n > 0; n-- {
					kind := OpRead
					switch r := rng.Intn(10); {
					case r >= 9:
						kind = OpErase
					case r >= 6:
						kind = OpProgram
					}
					ppn := rng.Int63n(pages)
					ops = append(ops, PageOp{Op: kind, Loc: geo.MapLogical(ppn, cell.Planes), PPN: ppn})
				}
				at := host
				if req%5 == 4 {
					at = last // a recovery resubmission at the last request's end
				} else {
					host += sim.Time(rng.Int63n(int64(40 * sim.Microsecond)))
				}
				last = d.Submit(at, ops)
				peak = max(peak, d.PendingCoverSpans())
			}

			span := d.Span()
			var chSum, pkgSum float64
			for c := 0; c < geo.Channels; c++ {
				all := slices.Clone(log.bus[c])
				for p := 0; p < geo.PackagesPerChannel; p++ {
					var pkg [][2]sim.Time
					for die := p; die < geo.DiesPerChannel(); die += geo.PackagesPerChannel {
						pkg = append(pkg, log.die[[2]int{c, die}]...)
					}
					all = append(all, pkg...)
					pkgSum += utilization(union(pkg), span)
				}
				chSum += utilization(union(all), span)
			}
			wantCh := chSum / float64(geo.Channels)
			wantPkg := pkgSum / float64(geo.Packages())
			if got := d.ChannelUtilization(); got != wantCh {
				t.Errorf("ChannelUtilization = %v, union of probe spans gives %v", got, wantCh)
			}
			if got := d.PackageUtilization(); got != wantPkg {
				t.Errorf("PackageUtilization = %v, union of probe spans gives %v", got, wantPkg)
			}
			if (tc.fault != "none") != (log.rr > 0) {
				t.Errorf("%d read-retry spans under fault profile %q", log.rr, tc.fault)
			}
			t.Logf("peak pending %d, spans %d, retries %d", peak, log.n, log.rr)
			// The fold must actually have run: the sets hold a small
			// fraction of the spans they were given.
			if peak*20 > log.n {
				t.Errorf("peak pending cover spans %d of %d marked: the sets are not folding", peak, log.n)
			}
		})
	}
}

// utilization is covered time over the span, clamped to 1.
func utilization(covered, span sim.Time) float64 {
	return min(float64(covered)/float64(span), 1)
}
