package main

import (
	"time"

	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/pool"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
)

// timedTranslator wraps an ssd.Translator for the traced run: it adds up the
// host time spent inside translation calls and counts them. Like
// check.Checked it forwards every optional interface the drive and the
// instrumentation helpers probe for, so a stack built around it simulates
// exactly what a stack built around the bare translator does.
type timedTranslator struct {
	inner ssd.Translator
	spent time.Duration
	calls int64
}

func (t *timedTranslator) timed(f func(offset, size int64) []nvm.PageOp, offset, size int64) []nvm.PageOp {
	start := time.Now()
	ops := f(offset, size)
	t.spent += time.Since(start)
	t.calls++
	return ops
}

// Read implements ssd.Translator.
func (t *timedTranslator) Read(offset, size int64) []nvm.PageOp {
	return t.timed(t.inner.Read, offset, size)
}

// Write implements ssd.Translator.
func (t *timedTranslator) Write(offset, size int64) []nvm.PageOp {
	return t.timed(t.inner.Write, offset, size)
}

// Erase implements ssd.Translator.
func (t *timedTranslator) Erase(offset, size int64) []nvm.PageOp {
	return t.timed(t.inner.Erase, offset, size)
}

// PageSize implements ssd.Translator.
func (t *timedTranslator) PageSize() int64 { return t.inner.PageSize() }

// CapacityBytes implements ssd.Translator.
func (t *timedTranslator) CapacityBytes() int64 { return t.inner.CapacityBytes() }

// RetireBlock implements ssd.BlockRetirer; a translator without retirement
// support answers OK=false, which the drive treats as it treats a
// translator that is no BlockRetirer.
func (t *timedTranslator) RetireBlock(ppn int64) nvm.Retirement {
	br, ok := t.inner.(ssd.BlockRetirer)
	if !ok {
		return nvm.Retirement{}
	}
	start := time.Now()
	r := br.RetireBlock(ppn)
	t.spent += time.Since(start)
	t.calls++
	return r
}

// MediaTap forwards the inner translator's durable-media tap (nil when it
// has none).
func (t *timedTranslator) MediaTap() nvm.MediaTap {
	if mt, ok := t.inner.(interface{ MediaTap() nvm.MediaTap }); ok {
		return mt.MediaTap()
	}
	return nil
}

// SetOpPool implements ssd.OpPooler by forwarding.
func (t *timedTranslator) SetOpPool(p *pool.Buffers[nvm.PageOp]) {
	if op, ok := t.inner.(ssd.OpPooler); ok {
		op.SetOpPool(p)
	}
}

// ReleaseOps implements ssd.OpPooler by forwarding.
func (t *timedTranslator) ReleaseOps(ops []nvm.PageOp) {
	if op, ok := t.inner.(ssd.OpPooler); ok {
		op.ReleaseOps(ops)
	}
}

// SetMappingTap forwards a conformance tap (the integrity oracle attaches
// through it).
func (t *timedTranslator) SetMappingTap(tap nvm.MappingTap) { nvm.InstrumentMapping(t.inner, tap) }

// SetProbe forwards observability wiring.
func (t *timedTranslator) SetProbe(p obs.Probe) { obs.Instrument(t.inner, p) }

// RegisterSeries forwards time-series registration.
func (t *timedTranslator) RegisterSeries(s *timeseries.Sampler) { timeseries.Instrument(t.inner, s) }

// countedLink wraps an nvm.Link for the traced run and counts its transfers
// and bytes. Transfer runs once per page, so it is counted, not timed.
type countedLink struct {
	inner     nvm.Link
	transfers int64
	bytes     int64
}

// Transfer implements nvm.Link.
func (l *countedLink) Transfer(at sim.Time, n int64) sim.Time {
	l.transfers++
	l.bytes += n
	return l.inner.Transfer(at, n)
}

// RequestOverhead implements nvm.Link.
func (l *countedLink) RequestOverhead() sim.Time { return l.inner.RequestOverhead() }

// BytesPerSec implements nvm.Link.
func (l *countedLink) BytesPerSec() float64 { return l.inner.BytesPerSec() }

// SetProbe forwards observability wiring.
func (l *countedLink) SetProbe(p obs.Probe) { obs.Instrument(l.inner, p) }

// busyLink is a countedLink over a link that tracks its own occupancy. The
// device registers a link-occupancy series only for links with Busy, so the
// wrapper has it exactly when the inner link does.
type busyLink struct {
	*countedLink
	busy interface{ Busy() sim.Time }
}

// Busy forwards the inner link's cumulative busy time.
func (l busyLink) Busy() sim.Time { return l.busy.Busy() }

// countLink wraps inner and returns the wrapper together with its counters.
func countLink(inner nvm.Link) (nvm.Link, *countedLink) {
	c := &countedLink{inner: inner}
	if b, ok := inner.(interface{ Busy() sim.Time }); ok {
		return busyLink{c, b}, c
	}
	return c, c
}
