package check

import (
	"errors"
	"fmt"
	"testing"

	"oocnvm/internal/fault"
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
)

// TestFailureSweepStaysTyped replays CNL-EXT4 episodes under pure program-
// and erase-failure profiles for four times DefaultParams' op count, long
// enough that grown-bad retirements eat the FTL's spare superblocks and the
// drive degrades. Every episode must finish without a panic and without a
// violation, and every request error must be typed: a drive that runs out
// of writable space refuses writes with fault.ErrReadOnly rather than
// crashing mid-relocation.
func TestFailureSweepStaysTyped(t *testing.T) {
	profiles := []fault.Profile{
		{Name: "erase-fail", EraseFailProb: 0.005},
		{Name: "program-fail", ProgramFailProb: 0.0005},
	}
	cfg := findConfig(t, "CNL-EXT4")
	episodes, readOnly := 0, 0
	for _, cell := range []nvm.CellType{nvm.SLC, nvm.MLC} {
		for _, prof := range profiles {
			for seed := uint64(1); seed <= 15; seed++ {
				sc := StackConfig{Config: cfg, Cell: cell, Seed: seed, Fault: prof}
				name := fmt.Sprintf("%v/%s/seed=%d", cell, prof.Name, seed)
				ro, err := failureEpisode(sc)
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				episodes++
				if ro {
					readOnly++
				}
			}
		}
	}
	t.Logf("%d episodes, %d degraded to read-only", episodes, readOnly)
}

// failureEpisode replays one 4x-length episode op by op, converting a panic
// into an error, and reports whether the drive degraded to read-only.
func failureEpisode(sc StackConfig) (readOnly bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	st, err := buildStack(sc)
	if err != nil {
		return false, err
	}
	p := DefaultParams(sc.Capacity(), nvm.Params(sc.Cell).PageSize)
	p.Ops *= 4
	for _, op := range Generate(p, sim.NewRNG(sc.Seed)) {
		_, e := st.drive.Submit(op)
		if e != nil && !errors.Is(e, fault.ErrReadOnly) && !errors.Is(e, fault.ErrUncorrectable) {
			return false, fmt.Errorf("untyped error: %v", e)
		}
	}
	res := st.drive.Finish()
	viol := append(st.checked.Oracle().Violations(), st.env.Check(res)...)
	viol = append(viol, CheckAttribution(st.rec.Summary())...)
	if len(viol) > 0 {
		return false, fmt.Errorf("%d violations, first: %v", len(viol), viol[0])
	}
	return errors.Is(st.drive.Err(), fault.ErrReadOnly), nil
}
