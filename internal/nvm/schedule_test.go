package nvm

import (
	"fmt"
	"slices"
	"testing"

	"oocnvm/internal/sim"
)

// refSchedule is the plain scheduler the device's must agree with: bucket
// every op per (channel, die), visit every bucket in layout order, merge each
// die's ops through per-plane queues (a round takes the head of every queue
// sharing the round's first verb), then interleave the per-die activation
// sequences round-robin. It returns the activations as op-index groups, the
// touched channels in ascending order and whether some channel drives more
// than one die.
func refSchedule(geo Geometry, planes int, ops []PageOp) (acts [][]int32, chans []int, interleave bool) {
	dpc := geo.DiesPerChannel()
	buckets := make([][]int32, geo.Dies())
	for i, op := range ops {
		idx := op.Loc.Channel*dpc + op.Loc.Die
		buckets[idx] = append(buckets[idx], int32(i))
	}
	var perDie [][][]int32
	for idx, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		if ch := idx / dpc; len(chans) > 0 && chans[len(chans)-1] == ch {
			interleave = true
		} else {
			chans = append(chans, ch)
		}
		var seq [][]int32
		if planes <= 1 {
			for _, i := range bucket {
				seq = append(seq, []int32{i})
			}
			perDie = append(perDie, seq)
			continue
		}
		queues := make([][]int32, planes)
		for _, i := range bucket {
			p := ops[i].Loc.Plane % planes
			queues[p] = append(queues[p], i)
		}
		for {
			var group []int32
			for p := range queues {
				if len(queues[p]) == 0 {
					continue
				}
				head := queues[p][0]
				if len(group) > 0 && ops[head].Op != ops[group[0]].Op {
					continue
				}
				group = append(group, head)
				queues[p] = queues[p][1:]
			}
			if len(group) == 0 {
				break
			}
			seq = append(seq, group)
		}
		perDie = append(perDie, seq)
	}
	for round := 0; ; round++ {
		more := false
		for _, seq := range perDie {
			if round < len(seq) {
				acts = append(acts, seq[round])
				more = true
			}
		}
		if !more {
			return acts, chans, interleave
		}
	}
}

// TestScheduleMatchesReference compares the device's bitmap scheduler with
// refSchedule on random mixed-verb batches, back to back on one device so
// that every batch also checks the previous one left its buckets empty. The
// die counts make the touched-bucket bitmap span part of one word (18 dies),
// exactly one word (64) and several words (128).
func TestScheduleMatchesReference(t *testing.T) {
	geos := []Geometry{
		{Channels: 3, PackagesPerChannel: 3, DiesPerPackage: 2, BlocksPerPlane: 4},
		{Channels: 4, PackagesPerChannel: 8, DiesPerPackage: 2, BlocksPerPlane: 4},
		PaperGeometry(),
	}
	for _, geo := range geos {
		for _, planes := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("dies%d/planes%d", geo.Dies(), planes), func(t *testing.T) {
				cell := Params(MLC)
				cell.Planes = planes
				d, err := NewDevice(geo, cell, ONFi3SDR(), &slowLink{bps: 4e9}, 1)
				if err != nil {
					t.Fatal(err)
				}
				rng := sim.NewRNG(uint64(geo.Dies()*10 + planes))
				pages := geo.Pages(cell)
				var ops []PageOp
				for batch := 0; batch < 300; batch++ {
					ops = ops[:0]
					run := rng.Int63n(pages) // a sequential run's next page
					for n := 1 + rng.Intn(200); n > 0; n-- {
						op := Op(rng.Intn(3))
						if rng.Bool(0.5) {
							ops = append(ops, PageOp{Op: op, Loc: geo.MapLogical(run%pages, planes), PPN: run % pages})
							run++
							continue
						}
						loc := Location{
							Channel: rng.Intn(geo.Channels),
							Die:     rng.Intn(geo.DiesPerChannel()),
							Plane:   rng.Intn(planes),
						}
						ops = append(ops, PageOp{Op: op, Loc: loc})
					}
					wantActs, wantChans, wantInter := refSchedule(geo, planes, ops)
					acts, inter := d.schedule(ops)
					if inter != wantInter {
						t.Fatalf("batch %d: interleave = %v, reference %v", batch, inter, wantInter)
					}
					if !slices.Equal(d.scChans, wantChans) {
						t.Fatalf("batch %d: touched channels %v, reference %v", batch, d.scChans, wantChans)
					}
					if len(acts) != len(wantActs) {
						t.Fatalf("batch %d: %d activations, reference %d", batch, len(acts), len(wantActs))
					}
					for k, a := range acts {
						if got := d.scGroups[a.lo:a.hi]; !slices.Equal(got, wantActs[k]) {
							t.Fatalf("batch %d activation %d: ops %v, reference %v", batch, k, got, wantActs[k])
						}
					}
				}
			})
		}
	}
}
