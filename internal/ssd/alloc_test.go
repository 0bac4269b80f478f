package ssd

import (
	"testing"

	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/trace"
)

// steadyStateBudget is the per-request allocation ceiling once the drive is
// warm. The pooled lifecycle and the device's scratch arenas recycle every
// per-request structure, and the utilization cover sets fold settled spans
// instead of growing, so a warm drive allocates nothing per request — any
// per-request slice or bookkeeping allocation fails the pin.
const steadyStateBudget = 0.0

// TestSubmitSteadyStateAllocs pins the steady-state allocation cost of
// SSD.Submit with real, sized requests through the pooled Direct translator.
// The first pass warms every free list and scratch arena (translation slices,
// die buckets, plane queues, window heap); after that each Submit must run
// from recycled storage.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	s := newSSD(t, testConfig(nvm.SLC))
	ops := make([]trace.BlockOp, 16)
	for i := range ops {
		ops[i] = trace.BlockOp{Kind: trace.Read, Offset: int64(i) * (128 << 10), Size: 128 << 10}
	}
	s.Replay(ops) // warm-up: grows pools, scratch, and the window heap
	allocs := testing.AllocsPerRun(100, func() {
		for _, op := range ops {
			s.Submit(op)
		}
	})
	perReq := allocs / float64(len(ops))
	if perReq > steadyStateBudget {
		t.Fatalf("steady-state Submit allocates %.2f objects per request, budget %.1f", perReq, steadyStateBudget)
	}
	if gets, reuses := s.OpPoolStats(); reuses == 0 || reuses < gets/2 {
		t.Fatalf("op pool not recycling: %d gets, %d reuses", gets, reuses)
	}
}

// TestReplaySteadyStateAllocs pins the steady-state cost of a full Replay —
// mixed reads and writes through a warm FTL, including its GC and mapping
// churn — at zero allocations per request.
func TestReplaySteadyStateAllocs(t *testing.T) {
	cfg := testConfig(nvm.MLC)
	f, err := ftl.New(cfg.Geometry, cfg.Cell, ftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Translator = f
	s := newSSD(t, cfg)
	ops := make([]trace.BlockOp, 0, 24)
	for i := int64(0); i < 16; i++ {
		ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (256 << 10), Size: 256 << 10})
		if i%2 == 0 {
			ops = append(ops, trace.BlockOp{Kind: trace.Write, Offset: i * (64 << 10), Size: 64 << 10})
		}
	}
	s.Replay(ops) // warm-up
	allocs := testing.AllocsPerRun(100, func() {
		s.Replay(ops)
	})
	perReq := allocs / float64(len(ops))
	if perReq > steadyStateBudget {
		t.Fatalf("steady-state Replay allocates %.2f objects per request, budget %.1f", perReq, steadyStateBudget)
	}
}
