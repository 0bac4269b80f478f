package check

import (
	"errors"
	"fmt"
	"sort"

	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// pageShadow is the crash checker's per-logical-page acknowledgment
// history: the last version the host saw acknowledged, whether a trim was
// acknowledged after it, and — for pages touched by the request the power
// cut interrupted — the version or trim that was in flight. Versions here
// count host writes per page exactly like the FTL's durable version tags,
// so matching numbers mean bit-identical content under the oracle's
// content-hash convention (hash = f(seed, lpn, version)). preloaded marks a
// page of the staged dataset: version 0 counts as acknowledged for it.
type pageShadow struct {
	acked        uint64
	trimmed      bool
	inflight     uint64
	inflightTrim bool
	preloaded    bool
}

// CrashResult is one crash episode's outcome.
type CrashResult struct {
	Trace []trace.BlockOp
	// Crashed reports whether the armed cut actually fired; PEOps is the
	// program/erase boundary count at the cut (or the total when it did
	// not fire).
	Crashed bool
	PEOps   int64
	// AckedOps counts host requests acknowledged before the cut.
	AckedOps int
	// Stats snapshots the pre-crash FTL counters (journal overhead).
	Stats ftl.Stats
	// Report and RecoverErr come from the mount-time recovery; State is
	// the recovered FTL's deterministic dump (for replay-identity checks).
	Report     ftl.RecoveryReport
	RecoverErr error
	State      string
	// Elapsed is the drive clock when the last request completed or the
	// cut fired.
	Elapsed    sim.Time
	Violations []Violation
}

// crashConfig normalizes a stack config for crash episodes: durable
// metadata on, and the cut plan installed.
func crashConfig(sc StackConfig, plan fault.CrashPlan) StackConfig {
	sc.Durable.Enabled = true
	sc.Crash = &plan
	return sc
}

// CrashReplay drives a trace through a durable checked stack with a power
// cut armed, recovers the surviving media through the FTL's mount path,
// and asserts the durability contract:
//
//  1. every write acknowledged before the cut reads back bit-exact (its
//     recovered mapping points at a media page whose OOB tag carries the
//     acked version — the shadow oracle's content hash is a pure function
//     of (seed, lpn, version), so version equality is content equality);
//  2. no torn page is ever served as clean data;
//  3. unrecoverable metadata degrades to a read-only mount with the typed
//     ftl.ErrUnrecoverableMeta, and post-mount writes are rejected with it.
//
// The request the cut interrupted is exempt from (1): its pages may
// surface either the old acked version or the in-flight one (a torn write
// is allowed to persist or vanish, never to mangle).
func CrashReplay(sc StackConfig, ops []trace.BlockOp, plan fault.CrashPlan) (CrashResult, error) {
	sc = crashConfig(sc, plan)
	st, err := buildStack(sc)
	if err != nil {
		return CrashResult{}, err
	}
	f, ok := st.checked.inner.(*ftl.FTL)
	if !ok {
		return CrashResult{}, fmt.Errorf("check: crash replay requires an FTL translator (config %v)", sc.Config.Kind)
	}
	ps := st.checked.PageSize()

	out := CrashResult{Trace: ops}
	shadow := make(map[int64]*pageShadow)
	at := func(lpn int64) *pageShadow {
		sh := shadow[lpn]
		if sh == nil {
			sh = &pageShadow{}
			shadow[lpn] = sh
		}
		return sh
	}
	// The preloaded dataset is acknowledged data too: every staged page
	// must survive as version 0 until the host overwrites or trims it,
	// however often GC moves it.
	for lpn := int64(0); lpn < (sc.preload+ps-1)/ps; lpn++ {
		at(lpn).preloaded = true
	}
	ver := make(map[int64]uint64)
	for _, op := range ops {
		if st.inj.Crashed() {
			break
		}
		first, last := op.Offset/ps, (op.Offset+op.Size-1)/ps
		if op.Kind == trace.Write && op.Size > 0 {
			for lpn := first; lpn <= last; lpn++ {
				ver[lpn]++
			}
		}
		end, err := st.drive.Submit(op)
		out.Elapsed = sim.MaxTime(out.Elapsed, end)
		crashed := st.inj.Crashed()
		if err != nil && !crashed {
			// Fault-free except for the cut: any other error is a stack
			// defect.
			out.Violations = append(out.Violations,
				Violation{Kind: "error", Detail: fmt.Sprintf("crash replay surfaced %v", err)})
			break
		}
		if op.Size <= 0 {
			continue
		}
		switch op.Kind {
		case trace.Write:
			for lpn := first; lpn <= last; lpn++ {
				sh := at(lpn)
				if crashed {
					sh.inflight = ver[lpn]
				} else {
					sh.acked = ver[lpn]
					sh.trimmed = false
				}
			}
		case trace.Erase:
			for lpn := first; lpn <= last; lpn++ {
				sh := at(lpn)
				if crashed {
					sh.inflightTrim = true
				} else {
					sh.trimmed = true
				}
			}
		}
		if !crashed {
			out.AckedOps++
		}
	}
	out.Crashed = st.inj.Crashed()
	out.PEOps = st.inj.PEOps()
	out.Stats = f.Stats()
	if !out.Crashed {
		return out, nil
	}

	// Mount-time recovery from the surviving media.
	geo := sc.geometry()
	cell := nvm.Params(sc.Cell)
	rf, rep, rerr := ftl.Recover(geo, cell, ftl.Config{Durable: sc.Durable}, f.Media())
	out.Report = rep
	out.RecoverErr = rerr
	if rerr != nil {
		if !errors.Is(rerr, ftl.ErrUnrecoverableMeta) {
			out.Violations = append(out.Violations,
				Violation{Kind: "durability", Detail: fmt.Sprintf("recover failed with untyped error: %v", rerr)})
			return out, nil
		}
		if !rep.ReadOnly || !rf.ReadOnly() {
			out.Violations = append(out.Violations,
				Violation{Kind: "durability", Detail: "unrecoverable metadata did not force a read-only mount"})
		}
	}
	out.State = rf.DumpState()
	out.Violations = append(out.Violations, checkDurability(rf, shadow, rerr != nil)...)
	out.Violations = append(out.Violations, exerciseMount(sc, rf, rep, rerr, shadow)...)
	return out, nil
}

// checkDurability compares the recovered FTL against the acked shadow
// history. A read-only salvage mount relaxes clause (1) — acked data may
// be gone, that is what the typed error announces — but clause (2) still
// holds: whatever is mapped must be clean, matching media.
func checkDurability(rf *ftl.FTL, shadow map[int64]*pageShadow, salvaged bool) []Violation {
	var out []Violation
	media := rf.Media()
	lpns := make([]int64, 0, len(shadow))
	for lpn := range shadow {
		lpns = append(lpns, lpn)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	for _, lpn := range lpns {
		sh := shadow[lpn]
		ppn, gotVer, mapped := rf.Mapping(lpn)
		programmed := false
		if mapped {
			// Clause (2): the mapping must point at a fully programmed,
			// untorn media page tagged with this very (lpn, version).
			var oob ftl.OOB
			var torn bool
			oob, programmed, torn = media.PageState(ppn)
			switch {
			case torn:
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("lpn %d maps to torn page %d", lpn, ppn)})
				continue
			case !programmed && gotVer > 0:
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("lpn %d v%d maps to unprogrammed page %d", lpn, gotVer, ppn)})
				continue
			case programmed && (oob.LPN != lpn || oob.Ver != gotVer):
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("lpn %d v%d maps to page %d tagged lpn=%d v%d", lpn, gotVer, ppn, oob.LPN, oob.Ver)})
				continue
			}
		}
		if salvaged {
			continue
		}
		// Clause (1): acked writes survive; the interrupted request's pages
		// may legally surface their in-flight version instead.
		okVer := func(v uint64) bool {
			if v == sh.acked {
				return true
			}
			return sh.inflight > 0 && v == sh.inflight
		}
		switch {
		case sh.trimmed || sh.inflightTrim:
			// Trim records may be lost: resurrection of the last durable
			// copy is allowed, serving anything else is not.
			if mapped && !okVer(gotVer) {
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("lpn %d trimmed but recovered v%d (acked v%d)", lpn, gotVer, sh.acked)})
			}
		case sh.acked == 0 && sh.preloaded:
			// Untouched preloaded data: still version 0, on a page that
			// holds it (an erased identity slot is data loss).
			switch {
			case !mapped:
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("preloaded lpn %d lost: unmapped after recovery", lpn)})
			case gotVer != 0 && !okVer(gotVer):
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("preloaded lpn %d recovered v%d", lpn, gotVer)})
			case gotVer == 0 && !programmed:
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("preloaded lpn %d lost: maps to erased page %d", lpn, ppn)})
			}
		case sh.acked > 0:
			if !mapped {
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("lpn %d acked v%d lost: unmapped after recovery", lpn, sh.acked)})
			} else if !okVer(gotVer) {
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("lpn %d acked v%d recovered v%d", lpn, sh.acked, gotVer)})
			}
		default:
			// Never-acked page (only in-flight writes touched it): either
			// the preloaded identity (v0) or the in-flight version may
			// appear.
			if mapped && gotVer != 0 && !okVer(gotVer) {
				out = append(out, Violation{Kind: "durability",
					Detail: fmt.Sprintf("lpn %d never acked but recovered v%d", lpn, gotVer)})
			}
		}
	}
	return out
}

// exerciseMount drives the recovered FTL through a fresh controller: the
// mount books its recovery time on the Recovery attribution component,
// reads of every recovered page must succeed, and — on a read-only mount —
// a write must be rejected with the typed error. The mount recorder's
// conservation envelope is checked like any other episode's.
func exerciseMount(sc StackConfig, rf *ftl.FTL, rep ftl.RecoveryReport, rerr error, shadow map[int64]*pageShadow) []Violation {
	var out []Violation
	rec := attrib.NewRecorder(0)
	var roErr error
	if rerr != nil {
		roErr = rerr
	}
	drive, err := ssd.New(ssd.Config{
		Geometry:   sc.geometry(),
		Cell:       nvm.Params(sc.Cell),
		Bus:        sc.Config.Bus,
		Link:       sc.Config.BuildLink(),
		Translator: rf,
		Seed:       sc.Seed,
		Attrib:     rec,
	})
	if err != nil {
		return []Violation{{Kind: "error", Detail: fmt.Sprintf("post-recovery stack build failed: %v", err)}}
	}
	drive.Mount(ssd.MountInfo{Duration: rep.Duration, ReadOnly: roErr})
	ps := rf.PageSize()
	lpns := make([]int64, 0, len(shadow))
	for lpn := range shadow {
		lpns = append(lpns, lpn)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	reads := 0
	for _, lpn := range lpns {
		if _, _, mapped := rf.Mapping(lpn); !mapped {
			continue
		}
		if _, err := drive.Submit(trace.BlockOp{Kind: trace.Read, Offset: lpn * ps, Size: ps}); err != nil {
			out = append(out, Violation{Kind: "durability",
				Detail: fmt.Sprintf("post-recovery read of lpn %d failed: %v", lpn, err)})
		}
		reads++
		if reads >= 64 {
			break
		}
	}
	_, werr := drive.Submit(trace.BlockOp{Kind: trace.Write, Offset: 0, Size: ps})
	if rerr != nil {
		if !errors.Is(werr, ftl.ErrUnrecoverableMeta) {
			out = append(out, Violation{Kind: "durability",
				Detail: fmt.Sprintf("write on read-only mount returned %v, want ErrUnrecoverableMeta", werr)})
		}
	} else if werr != nil {
		out = append(out, Violation{Kind: "durability",
			Detail: fmt.Sprintf("post-recovery write failed: %v", werr)})
	}
	out = append(out, CheckAttribution(rec.Summary())...)
	return out
}

// FailsWithCrash builds a shrink predicate: the trace fails when replaying
// it with the cut armed produces any violation. Shrinking moves the cut
// relative to the workload (fewer preceding operations reach the boundary
// sooner), which is exactly the point — ddmin keeps whatever prefix still
// reproduces the durability violation.
func FailsWithCrash(sc StackConfig, plan fault.CrashPlan) Predicate {
	return func(ops []trace.BlockOp) bool {
		res, err := CrashReplay(sc, ops, plan)
		return err != nil || len(res.Violations) > 0
	}
}

// CrashFailure is one failing crash point with its shrunken reproducer.
type CrashFailure struct {
	Plan       fault.CrashPlan
	Violations []Violation
	Trace      []trace.BlockOp // shrunken reproducer
}

// SweepResult summarizes a crash-point sweep.
type SweepResult struct {
	TotalPEOps int64
	Points     int
	Failures   []CrashFailure
	// DeterminismOK reports the double-run identity check at the sweep's
	// middle crash point: same seed + same cut must recover byte-identical
	// FTL state and an identical recovery report.
	DeterminismOK bool
}

// CrashSweep generates one seeded workload and crashes it at every Nth
// program/erase boundary (plus one wall-clock cut at half the clean run's
// elapsed time), asserting the durability contract at each point. The
// first failing point's trace is shrunk with ddmin. every <= 0 picks a
// stride that yields about twelve points.
func CrashSweep(sc StackConfig, p Params, every int64) (SweepResult, error) {
	ops := Generate(p, sim.NewRNG(sc.Seed))
	// Count-only run: an armed-but-empty plan counts boundaries without
	// ever firing, measuring the sweep's domain.
	probe, err := CrashReplay(sc, ops, fault.CrashPlan{})
	if err != nil {
		return SweepResult{}, err
	}
	res := SweepResult{TotalPEOps: probe.PEOps}
	if probe.PEOps == 0 {
		return res, nil
	}
	if every <= 0 {
		every = probe.PEOps / 12
		if every == 0 {
			every = 1
		}
	}
	plans := make([]fault.CrashPlan, 0, probe.PEOps/every+1)
	for n := every; n <= probe.PEOps; n += every {
		plans = append(plans, fault.CrashPlan{AfterOps: n})
	}
	if probe.Elapsed > 0 {
		plans = append(plans, fault.CrashPlan{AtTime: probe.Elapsed / 2})
	}
	for _, plan := range plans {
		r, err := CrashReplay(sc, ops, plan)
		if err != nil {
			return res, err
		}
		res.Points++
		if len(r.Violations) > 0 {
			fail := CrashFailure{Plan: plan, Violations: r.Violations}
			if len(res.Failures) == 0 {
				fail.Trace = Shrink(ops, FailsWithCrash(sc, plan))
			}
			res.Failures = append(res.Failures, fail)
		}
	}
	// Determinism: replay the middle cut twice; recovered state and report
	// must be byte-identical.
	mid := plans[len(plans)/2]
	a, errA := CrashReplay(sc, ops, mid)
	b, errB := CrashReplay(sc, ops, mid)
	res.DeterminismOK = errA == nil && errB == nil &&
		a.State == b.State && a.Report == b.Report && a.PEOps == b.PEOps
	if !res.DeterminismOK {
		res.Failures = append(res.Failures, CrashFailure{
			Plan: mid,
			Violations: []Violation{{Kind: "durability",
				Detail: fmt.Sprintf("non-deterministic recovery at crash point %+v", mid)}},
		})
	}
	return res, nil
}
