package check

import (
	"fmt"

	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// StackConfig describes one checked stack: a Table 2 experiment row (which
// fixes the translator kind, host interconnect and NVM bus), a cell type, a
// device geometry, and an optional fault profile.
type StackConfig struct {
	Config   experiment.Config
	Cell     nvm.CellType
	Geometry nvm.Geometry // zero value: SmallGeometry()
	Fault    fault.Profile
	Seed     uint64
	// Flip, when set, is installed as the Checked wrapper's FlipOffset
	// test hook (an intentionally injected translation defect).
	Flip func(int64) int64
	// Durable enables the FTL's durable-metadata model (journal +
	// checkpoints + OOB tags). Required for crash episodes.
	Durable ftl.DurableConfig
	// Crash, when set, arms a deterministic power cut on the injector.
	Crash *fault.CrashPlan

	// preload stages the first preload bytes of the logical space on an FTL
	// stack as identity-mapped resident data, so the workload overwrites a
	// preloaded extent. It is a test hook: only this package's tests set
	// it, and it lives here because CrashSweep and CrashReplay rebuild the
	// stack from the config at every crash point.
	preload int64
}

// SmallGeometry is the episode device: large enough to exercise striping,
// multi-plane merging and superblock GC, small enough that a single episode
// overwrites the whole device in a few hundred requests.
func SmallGeometry() nvm.Geometry {
	return nvm.Geometry{Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, BlocksPerPlane: 6}
}

func (sc StackConfig) geometry() nvm.Geometry {
	if sc.Geometry == (nvm.Geometry{}) {
		return SmallGeometry()
	}
	return sc.Geometry
}

// stack bundles one assembled checked drive with everything an episode (or
// a crash replay) needs to interrogate afterwards.
type stack struct {
	drive   *ssd.SSD
	checked *Checked
	env     Envelope
	rec     *attrib.Recorder
	inj     *fault.Injector
}

// buildStack assembles the checked drive for the config. The returned
// Checked wrapper carries the oracle; the envelope is derived from the same
// configuration the stack was built from. Every checked stack also carries
// a latency-attribution recorder so each episode exercises the attribution
// conservation envelope alongside the oracle.
func buildStack(sc StackConfig) (stack, error) {
	geo := sc.geometry()
	cell := nvm.Params(sc.Cell)

	var inner ssd.Translator
	if sc.Config.Kind == experiment.FSUFS {
		inner = ssd.NewDirect(geo, cell)
	} else {
		f, err := ftl.New(geo, cell, ftl.Config{Durable: sc.Durable})
		if err != nil {
			return stack{}, err
		}
		if sc.preload > 0 {
			if err := f.Preload(sc.preload); err != nil {
				return stack{}, err
			}
		}
		inner = f
	}
	checked := Wrap(inner, sc.Seed)
	checked.FlipOffset = sc.Flip

	var inj *fault.Injector
	if sc.Fault.Enabled() || sc.Crash != nil {
		var err error
		inj, err = fault.New(nvm.FaultConfig(geo, cell, sc.Fault, sc.Seed))
		if err != nil {
			return stack{}, err
		}
		if sc.Crash != nil {
			inj.ArmCrash(*sc.Crash)
		}
	}

	rec := attrib.NewRecorder(0)
	link := sc.Config.BuildLink()
	drive, err := ssd.New(ssd.Config{
		Geometry:   geo,
		Cell:       cell,
		Bus:        sc.Config.Bus,
		Link:       link,
		Translator: checked,
		QueueDepth: ssd.DefaultQueueDepth,
		Seed:       sc.Seed,
		Fault:      inj,
		Attrib:     rec,
	})
	if err != nil {
		return stack{}, err
	}
	return stack{drive: drive, checked: checked, env: NewEnvelope(geo, cell, sc.Config.Bus, link), rec: rec, inj: inj}, nil
}

// Capacity reports the stack's device capacity in bytes (for sizing
// workloads without building the stack twice).
func (sc StackConfig) Capacity() int64 {
	return sc.geometry().Capacity(nvm.Params(sc.Cell))
}

// EpisodeResult is one episode's outcome: the replayed trace, the drive's
// measurements, the latency-attribution aggregate, and every violation the
// oracle, the analytical envelope, and the attribution conservation
// envelope recorded.
type EpisodeResult struct {
	Trace      []trace.BlockOp
	Result     ssd.Result
	Attrib     attrib.Summary
	Violations []Violation
}

// RunEpisode generates a seeded workload, replays it through a freshly
// built checked stack, and returns the trace, result, and violations.
func RunEpisode(sc StackConfig, p Params) (EpisodeResult, error) {
	ops := Generate(p, sim.NewRNG(sc.Seed))
	res, err := Replay(sc, ops)
	res.Trace = ops
	return res, err
}

// Replay runs an explicit trace through a freshly built checked stack. It
// is the primitive both RunEpisode and the shrinker use: building a new
// stack per attempt keeps every replay independent and deterministic.
func Replay(sc StackConfig, ops []trace.BlockOp) (EpisodeResult, error) {
	st, err := buildStack(sc)
	if err != nil {
		return EpisodeResult{}, err
	}
	drive := st.drive
	res := drive.Replay(ops)

	out := EpisodeResult{Trace: ops, Result: res, Attrib: st.rec.Summary()}
	out.Violations = append(out.Violations, st.checked.Oracle().Violations()...)
	out.Violations = append(out.Violations, st.env.Check(res)...)
	out.Violations = append(out.Violations, CheckAttribution(out.Attrib)...)
	// Fault-free stacks must not error: the generator never leaves the
	// device, so any surfaced error is the stack's own defect.
	if err := drive.Err(); err != nil && !sc.Fault.Enabled() {
		out.Violations = append(out.Violations,
			Violation{Kind: "error", Detail: fmt.Sprintf("fault-free replay surfaced %v", err)})
	}
	return out, nil
}
