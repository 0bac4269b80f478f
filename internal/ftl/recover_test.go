package ftl

import (
	"errors"
	"testing"

	"oocnvm/internal/nvm"
)

func newDurable(t *testing.T, cell nvm.CellType, every int64) *FTL {
	t.Helper()
	f, err := New(smallGeo(), nvm.Params(cell), Config{
		ReserveSuperblocks: 2,
		Durable:            DurableConfig{Enabled: true, CheckpointEveryPages: every},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// applyOps mirrors the device's media effects for one request's op stream,
// optionally tearing it at the tearAt-th program/erase (1-based; 0 = never):
// boundaries before the tear commit cleanly, the tearing op commits torn,
// everything after it is dropped — the device's power-cut semantics.
// It returns the updated boundary count and whether the tear fired.
func applyOps(m *Media, ops []nvm.PageOp, count, tearAt int) (int, bool) {
	for _, op := range ops {
		switch op.Op {
		case nvm.OpProgram:
			count++
			if tearAt > 0 && count >= tearAt {
				m.MediaProgram(op, true)
				return count, true
			}
			m.MediaProgram(op, false)
		case nvm.OpErase:
			count++
			if tearAt > 0 && count >= tearAt {
				m.MediaErase(op, true)
				return count, true
			}
			m.MediaErase(op, false)
		}
	}
	return count, false
}

// durableWorkload drives a deterministic write/trim mix that overwrites the
// small device enough to trigger GC and several checkpoints, applying every
// emitted op to the media with an optional tear point. It returns the FTL,
// the boundary count, and whether the tear fired.
func durableWorkload(t *testing.T, tearAt int) (*FTL, int, bool) {
	t.Helper()
	f := newDurable(t, nvm.SLC, 24)
	ps := f.PageSize()
	pages := f.Pages()
	count := 0
	for i := 0; i < 900; i++ {
		lpn := int64(i*7) % (pages / 2)
		var ops []nvm.PageOp
		if i%11 == 3 {
			ops = f.Erase(lpn*ps, 2*ps)
		} else {
			ops = f.Write(lpn*ps, ps)
		}
		var torn bool
		count, torn = applyOps(f.Media(), ops, count, tearAt)
		if torn {
			return f, count, true
		}
	}
	return f, count, false
}

// TestRecoverCleanEquivalence recovers from an un-torn media image and
// requires every logical page's translation (physical page and version) to
// match the live FTL exactly, with all structural invariants intact.
func TestRecoverCleanEquivalence(t *testing.T) {
	f, _, torn := durableWorkload(t, 0)
	if torn {
		t.Fatal("untorn workload reported a tear")
	}
	rf, rep, err := Recover(smallGeo(), nvm.Params(nvm.SLC), Config{ReserveSuperblocks: 2}, f.Media())
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	if rep.TornPages != 0 {
		t.Fatalf("clean media reported %d torn pages", rep.TornPages)
	}
	if rep.Duration <= 0 {
		t.Fatal("recovery has no simulated cost")
	}
	checkInvariants(t, rf)
	for lpn := int64(0); lpn < f.Pages(); lpn++ {
		wp, wv, wok := f.Mapping(lpn)
		gp, gv, gok := rf.Mapping(lpn)
		if wok != gok || (wok && (wp != gp || wv != gv)) {
			t.Fatalf("lpn %d: live (%d v%d %v) != recovered (%d v%d %v)",
				lpn, wp, wv, wok, gp, gv, gok)
		}
	}
}

// TestRecoverTwiceIdentical requires recovery to be a pure function of the
// media image: two mounts of the same image dump byte-identical state.
func TestRecoverTwiceIdentical(t *testing.T) {
	_, count, _ := durableWorkload(t, 0)
	// Tear the image mid-stream for a harder case than the clean mount.
	f2, _, torn := durableWorkload(t, count/2)
	if !torn {
		t.Fatal("tear point never reached")
	}
	geo, cell := smallGeo(), nvm.Params(nvm.SLC)
	a, repA, errA := Recover(geo, cell, Config{ReserveSuperblocks: 2}, f2.Media())
	b, repB, errB := Recover(geo, cell, Config{ReserveSuperblocks: 2}, f2.Media())
	if errA != nil || errB != nil {
		t.Fatalf("recover: %v / %v", errA, errB)
	}
	if repA != repB {
		t.Fatalf("reports diverge:\n%+v\n%+v", repA, repB)
	}
	if a.DumpState() != b.DumpState() {
		t.Fatal("recovered state dumps diverge")
	}
	checkInvariants(t, a)
}

// TestRecoverTornPointsInvariants tears the workload at a spread of
// boundaries and requires every mount to hold the structural invariants,
// classify the torn page, and never map a logical page onto it.
func TestRecoverTornPointsInvariants(t *testing.T) {
	_, total, _ := durableWorkload(t, 0)
	if total < 10 {
		t.Fatalf("workload produced only %d boundaries", total)
	}
	for _, frac := range []int{10, 4, 2, 4 * total / 5, total - 1} {
		tearAt := frac
		if frac <= 10 {
			tearAt = total / frac
		}
		if tearAt < 1 {
			tearAt = 1
		}
		f, _, torn := durableWorkload(t, tearAt)
		if !torn {
			t.Fatalf("tear at %d never fired", tearAt)
		}
		rf, rep, err := Recover(smallGeo(), nvm.Params(nvm.SLC), Config{ReserveSuperblocks: 2}, f.Media())
		if err != nil {
			t.Fatalf("tear %d: recover: %v", tearAt, err)
		}
		checkInvariants(t, rf)
		m := f.Media()
		for lpn := int64(0); lpn < rf.Pages(); lpn++ {
			ppn, ver, ok := rf.Mapping(lpn)
			if !ok {
				continue
			}
			oob, programmed, pageTorn := m.PageState(ppn)
			if pageTorn {
				t.Fatalf("tear %d: lpn %d mapped onto torn page %d", tearAt, lpn, ppn)
			}
			if programmed && (oob.LPN != lpn || oob.Ver != ver) {
				t.Fatalf("tear %d: lpn %d v%d maps to page %d tagged lpn=%d v%d",
					tearAt, lpn, ver, ppn, oob.LPN, oob.Ver)
			}
			if !programmed && ver > 0 {
				t.Fatalf("tear %d: lpn %d v%d maps to blank page %d", tearAt, lpn, ver, ppn)
			}
		}
		if rep.Duration <= 0 {
			t.Fatalf("tear %d: free recovery", tearAt)
		}
	}
}

// TestRecoverUnrecoverableJournal corrupts a committed journal page and
// requires the typed error plus a functioning read-only salvage mount.
func TestRecoverUnrecoverableJournal(t *testing.T) {
	f2, _, _ := durableWorkload(t, 0)
	m := f2.Media()
	if m.MetaPages() < 2 {
		t.Fatalf("only %d metadata pages", m.MetaPages())
	}
	// Corrupt the entire committed chain: every checkpoint group becomes
	// unusable and the very first journal page replay reads is unreadable,
	// which is the unrecoverable case (a committed page that acked data may
	// depend on cannot be trusted away).
	corrupted := 0
	for seq := int64(0); seq < 4*m.MetaPages(); seq++ {
		if m.CorruptMeta(seq) {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("nothing corrupted")
	}
	rf, rep, err := Recover(smallGeo(), nvm.Params(nvm.SLC), Config{ReserveSuperblocks: 2}, m)
	if !errors.Is(err, ErrUnrecoverableMeta) {
		t.Fatalf("got %v, want ErrUnrecoverableMeta", err)
	}
	if !rep.ReadOnly || !rf.ReadOnly() {
		t.Fatal("salvage mount not read-only")
	}
	checkInvariants(t, rf)
	for lpn := int64(0); lpn < rf.Pages(); lpn++ {
		if ppn, _, ok := rf.Mapping(lpn); ok {
			if _, _, pageTorn := m.PageState(ppn); pageTorn {
				t.Fatalf("salvage mapped lpn %d onto torn page %d", lpn, ppn)
			}
		}
	}
}

// TestDurableStatsAndOverhead pins that durable mode actually prices its
// metadata: journal pages flow, checkpoints fire on the configured
// interval, and the off-mode stays at zero.
func TestDurableStatsAndOverhead(t *testing.T) {
	f, _, _ := durableWorkload(t, 0)
	st := f.Stats()
	if st.JournalPages == 0 {
		t.Fatal("no journal pages written")
	}
	if st.CkptRuns == 0 || st.CkptPages == 0 {
		t.Fatal("no checkpoints taken")
	}
	plain := newSmall(t, nvm.SLC)
	plain.Write(0, plain.PageSize())
	if s := plain.Stats(); s.JournalPages != 0 || s.CkptPages != 0 || s.CkptRuns != 0 {
		t.Fatalf("non-durable FTL reports metadata traffic: %+v", s)
	}
}

// TestRecoverPreloadRelocationAfterVictimErase cuts power at every
// boundary of the first request whose GC collects a preloaded superblock,
// up to just past the victim's erase. Every preloaded page the host never
// wrote must survive as version 0 on a page that holds it. A relocated
// copy carries the same version 0 tag as the identity slot it left, so
// recovery must adopt it from the open superblock's scan once the victim
// erase landed, and must fall back to the identity slot when the copy's
// placement record was flushed but its program never landed.
func TestRecoverPreloadRelocationAfterVictimErase(t *testing.T) {
	geo, cell := smallGeo(), nvm.Params(nvm.SLC)
	cfg := Config{ReserveSuperblocks: 2, Durable: DurableConfig{Enabled: true, CheckpointEveryPages: 1 << 30}}
	// run overwrites three of every four preloaded pages, so each
	// preloaded superblock keeps live identity pages for GC to move. With
	// tearAt == 0 it stops before the first request that erases a
	// preloaded superblock and returns that request's boundary range.
	run := func(tearAt int) (f *FTL, written map[int64]bool, first, last int) {
		f, err := New(geo, cell, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Preload(f.CapacityBytes() / 2); err != nil {
			t.Fatal(err)
		}
		pre := f.preloaded * f.spb
		written = make(map[int64]bool)
		count := 0
		for i := int64(0); i < 4*f.Pages(); i++ {
			lpn := i % pre
			if lpn%4 == 3 {
				continue
			}
			ops := f.Write(lpn*f.PageSize(), f.PageSize())
			if tearAt == 0 {
				n, erased := count, -1
				for _, op := range ops {
					if op.Op == nvm.OpProgram || op.Op == nvm.OpErase {
						n++
					}
					if op.Op == nvm.OpErase && op.PPN < pre {
						erased = n
					}
				}
				if erased >= 0 {
					return f, written, count + 1, erased + 1
				}
			}
			var torn bool
			if count, torn = applyOps(f.Media(), ops, count, tearAt); torn {
				return f, written, 0, 0
			}
			written[lpn] = true
		}
		t.Fatal("no preloaded superblock was collected")
		return nil, nil, 0, 0
	}
	_, _, first, last := run(0)
	for tearAt := first; tearAt <= last; tearAt++ {
		f, written, _, _ := run(tearAt)
		rf, _, err := Recover(geo, cell, cfg, f.Media())
		if err != nil {
			t.Fatalf("tear %d: %v", tearAt, err)
		}
		checkInvariants(t, rf)
		for lpn := int64(0); lpn < rf.preloaded*rf.spb; lpn++ {
			if written[lpn] {
				continue
			}
			ppn, ver, ok := rf.Mapping(lpn)
			oob, programmed, _ := f.Media().PageState(ppn)
			if !ok || ver != 0 || !programmed || oob != (OOB{LPN: lpn}) {
				t.Fatalf("tear %d: preloaded lpn %d lost: maps to page %d v%d (mapped %v, programmed %v, tag %+v)",
					tearAt, lpn, ppn, ver, ok, programmed, oob)
			}
		}
	}
}
