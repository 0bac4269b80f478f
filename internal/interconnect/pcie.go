// Package interconnect models the data paths between an SSD's NVM complex
// and the application: PCIe links of both generations the paper compares
// (2.0 with 8b/10b encoding, 3.0 with 128b/130b), the SATA-bridged
// controller architecture of Figure 5a versus the native architecture of
// Figure 5b, and the cluster fabrics (QDR 4X InfiniBand, Fibre Channel)
// that sit in front of ION-local storage.
package interconnect

import (
	"fmt"

	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
)

// PCIeGen captures a PCIe generation's signalling rate and line encoding.
type PCIeGen struct {
	Name        string
	GTPerSec    float64 // giga-transfers per second per lane
	EncodingNum int     // payload bits ...
	EncodingDen int     // ... per encoded bits on the wire
}

// The two generations the paper evaluates (§3.3: "SATA ... utilizes an 8/10
// bit encoding ... 25% overhead; PCIe 3.0 protocols only use a 128/130 bit
// encoding scheme for an overhead of just 1.5%").
var (
	PCIeGen2 = PCIeGen{Name: "PCIe2.0", GTPerSec: 5.0, EncodingNum: 8, EncodingDen: 10}
	PCIeGen3 = PCIeGen{Name: "PCIe3.0", GTPerSec: 8.0, EncodingNum: 128, EncodingDen: 130}
)

// LaneBytesPerSec returns the post-encoding payload bandwidth of one lane.
func (g PCIeGen) LaneBytesPerSec() float64 {
	return g.GTPerSec * 1e9 / 8 * float64(g.EncodingNum) / float64(g.EncodingDen)
}

// PCIeConfig describes the SSD's host attachment.
type PCIeConfig struct {
	Gen     PCIeGen
	Lanes   int
	Bridged bool // Figure 5a: flash controllers behind a SATA host/device pair
}

// pcieProtocolEfficiency accounts for TLP/DLLP framing, flow-control credits
// and completion overhead on top of line encoding.
const pcieProtocolEfficiency = 0.85

// sataBridgeEfficiency is the additional throughput loss of re-encoding
// through the SATA host/device bridge of ad-hoc PCIe SSD designs (§3.3).
const sataBridgeEfficiency = 0.90

// sataBridgeLatency is the per-request protocol re-encoding delay through
// the bridge.
const sataBridgeLatency = 8 * sim.Microsecond

// nativeSetupLatency is the per-request DMA descriptor setup of a native
// PCIe endpoint design.
const nativeSetupLatency = 1 * sim.Microsecond

// EffectiveBytesPerSec returns the data bandwidth the attachment can sustain.
func (c PCIeConfig) EffectiveBytesPerSec() float64 {
	bw := c.Gen.LaneBytesPerSec() * float64(c.Lanes) * pcieProtocolEfficiency
	if c.Bridged {
		bw *= sataBridgeEfficiency
	}
	return bw
}

// RequestOverhead returns the fixed per-request cost of the attachment.
func (c PCIeConfig) RequestOverhead() sim.Time {
	if c.Bridged {
		return sataBridgeLatency
	}
	return nativeSetupLatency
}

// String renders e.g. "PCIe2.0 x8 (bridged)".
func (c PCIeConfig) String() string {
	kind := "native"
	if c.Bridged {
		kind = "bridged"
	}
	return fmt.Sprintf("%s x%d (%s)", c.Gen.Name, c.Lanes, kind)
}

// Line is a Timeline-backed exclusive data path implementing nvm.Link.
type Line struct {
	name     string
	tl       sim.Timeline
	bps      float64
	overhead sim.Time

	// The wire time of the last transfer size: a device moves one page
	// size over and over, so the float division runs once per size change.
	lastN   int64
	lastDur sim.Time

	probe obs.Probe
	// Metric names are prebuilt at SetProbe time so the transfer hot path
	// never concatenates strings.
	busyGauge, bytesCounter, xfersCounter string
}

// NewLine builds a raw link with the given bandwidth and per-request cost.
func NewLine(name string, bytesPerSec float64, overhead sim.Time) *Line {
	return &Line{name: name, bps: bytesPerSec, overhead: overhead, probe: obs.Nop{}}
}

// SetProbe attaches an observability probe: per-transfer spans on the link's
// track plus byte/transfer counters and a cumulative busy-time gauge (the
// link-occupancy sample).
func (l *Line) SetProbe(p obs.Probe) {
	l.probe = obs.OrNop(p)
	l.busyGauge = "interconnect." + l.name + ".busy_ps"
	l.bytesCounter = "interconnect." + l.name + ".bytes"
	l.xfersCounter = "interconnect." + l.name + ".transfers"
}

// NewPCIeLine builds the link for a PCIe attachment.
func NewPCIeLine(c PCIeConfig) *Line {
	return NewLine(c.String(), c.EffectiveBytesPerSec(), c.RequestOverhead())
}

// Name identifies the link in reports.
func (l *Line) Name() string { return l.name }

// Transfer books n bytes no earlier than at and returns the completion time.
func (l *Line) Transfer(at sim.Time, n int64) sim.Time {
	if n != l.lastN {
		l.lastN, l.lastDur = n, sim.DurationForBytes(n, l.bps)
	}
	start, end := l.tl.Acquire(at, l.lastDur)
	if l.probe.Enabled() {
		l.probe.Span(obs.LayerInterconnect, l.name, "xfer", start, end)
		l.probe.Count(l.bytesCounter, n)
		l.probe.Count(l.xfersCounter, 1)
		l.probe.SetGauge(l.busyGauge, float64(l.tl.Busy()))
	}
	return end
}

// RequestOverhead reports the fixed per-request cost.
func (l *Line) RequestOverhead() sim.Time { return l.overhead }

// BytesPerSec reports the link's effective bandwidth.
func (l *Line) BytesPerSec() float64 { return l.bps }

// Busy reports accumulated transfer time, for utilization probes.
func (l *Line) Busy() sim.Time { return l.tl.Busy() }

// Reset clears the link's schedule.
func (l *Line) Reset() { l.tl.Reset() }

// Infinite is a link with no cost at all, used to measure what the media
// could deliver if the host path were removed ("bandwidth remaining",
// Figures 7b/8b).
type Infinite struct{}

// Transfer completes instantly.
func (Infinite) Transfer(at sim.Time, n int64) sim.Time { return at }

// RequestOverhead is zero.
func (Infinite) RequestOverhead() sim.Time { return 0 }

// BytesPerSec reports an effectively unlimited rate.
func (Infinite) BytesPerSec() float64 { return 1e18 }

// Chain composes links in series (e.g. remote PCIe then the cluster
// network): a transfer occupies each stage in order, and the per-request
// overheads add up.
type Chain struct {
	Stages []*Line
}

// NewChain composes the given stages.
func NewChain(stages ...*Line) *Chain { return &Chain{Stages: stages} }

// SetProbe attaches an observability probe to every stage.
func (c *Chain) SetProbe(p obs.Probe) {
	for _, s := range c.Stages {
		s.SetProbe(p)
	}
}

// Transfer books the bytes through every stage in series.
func (c *Chain) Transfer(at sim.Time, n int64) sim.Time {
	end := at
	for _, s := range c.Stages {
		end = s.Transfer(end, n)
	}
	return end
}

// RequestOverhead sums the stages' fixed costs.
func (c *Chain) RequestOverhead() sim.Time {
	var t sim.Time
	for _, s := range c.Stages {
		t += s.RequestOverhead()
	}
	return t
}

// Busy reports the accumulated transfer time of the bottleneck (busiest)
// stage, so chain occupancy never exceeds one link's worth of time and the
// telemetry fraction stays in [0,1].
func (c *Chain) Busy() sim.Time {
	var max sim.Time
	for _, s := range c.Stages {
		if b := s.Busy(); b > max {
			max = b
		}
	}
	return max
}

// BytesPerSec reports the bottleneck stage's bandwidth.
func (c *Chain) BytesPerSec() float64 {
	min := 1e18
	for _, s := range c.Stages {
		if s.BytesPerSec() < min {
			min = s.BytesPerSec()
		}
	}
	return min
}
