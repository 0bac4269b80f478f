// Command benchdiff compares two benchmark result files produced by
// benchjson and exits non-zero when a benchmark regressed beyond the noise
// thresholds — the gate behind `make bench-gate`.
//
//	benchdiff [-time-threshold 0.20] [-alloc-threshold 0.05] [-guard regex] OLD NEW
//
// Each file is either a benchjson JSON array (BENCH_results.json) or a
// benchjson -history JSONL file, in which case the last recorded run is
// used. Benchmarks present in both files are compared on ns/op, allocs/op
// and B/op: a value more than the corresponding threshold fraction above
// the old one is a regression, and -alloc-threshold gates both allocation
// dimensions (a few large objects growing is as much a regression as many
// small ones). A negative threshold disables that dimension (CI disables
// the wall-time gate this way — machines differ, but allocation counts and
// bytes are deterministic). -guard restricts which benchmarks
// can fail the gate; everything is still reported. Benchmarks appearing in
// only one file are listed but never gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"text/tabwriter"
)

type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Samples     int                `json:"samples,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// load reads a benchjson artifact: a JSON array, or a JSONL history file
// whose last line is the run to compare.
func load(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return nil, fmt.Errorf("benchdiff: %s is empty", path)
	}
	if trimmed[0] == '[' {
		var rs []result
		if err := json.Unmarshal([]byte(trimmed), &rs); err != nil {
			return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
		}
		return rs, nil
	}
	// JSONL history: take the most recent run.
	lines := strings.Split(trimmed, "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	var entry struct {
		Results []result `json:"results"`
	}
	if err := json.Unmarshal([]byte(last), &entry); err != nil {
		return nil, fmt.Errorf("benchdiff: %s last line: %w", path, err)
	}
	return entry.Results, nil
}

// delta is the fractional change from old to new (+0.2 = 20% slower/more).
func delta(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return 1 // something from nothing: treat as a full-size increase
	}
	return newV/oldV - 1
}

// regressed reports whether newV exceeds oldV by more than the threshold
// fraction. A negative threshold disables the check.
func regressed(oldV, newV, threshold float64) bool {
	if threshold < 0 {
		return false
	}
	return delta(oldV, newV) > threshold
}

type options struct {
	timeThreshold  float64
	allocThreshold float64
	guard          string
}

func run(o options, oldPath, newPath string, w io.Writer) error {
	oldRes, err := load(oldPath)
	if err != nil {
		return err
	}
	newRes, err := load(newPath)
	if err != nil {
		return err
	}
	var guard *regexp.Regexp
	if o.guard != "" {
		guard, err = regexp.Compile(o.guard)
		if err != nil {
			return fmt.Errorf("benchdiff: bad -guard: %w", err)
		}
	}

	oldBy := make(map[string]result, len(oldRes))
	for _, r := range oldRes {
		oldBy[r.Name] = r
	}
	seen := make(map[string]bool, len(newRes))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tns/op old\tns/op new\tΔtime\tallocs old\tallocs new\tΔallocs\tB/op old\tB/op new\tΔbytes\tverdict\n")
	regressions := 0
	for _, nr := range newRes {
		seen[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.0f\t-\t-\t%.0f\t-\t-\t%.0f\t-\tnew\n", nr.Name, nr.NsPerOp, nr.AllocsPerOp, nr.BytesPerOp)
			continue
		}
		timeBad := regressed(or.NsPerOp, nr.NsPerOp, o.timeThreshold)
		allocBad := regressed(or.AllocsPerOp, nr.AllocsPerOp, o.allocThreshold) ||
			regressed(or.BytesPerOp, nr.BytesPerOp, o.allocThreshold)
		gated := guard == nil || guard.MatchString(nr.Name)
		verdict := "ok"
		if timeBad || allocBad {
			if gated {
				verdict = "REGRESSION"
				regressions++
			} else {
				verdict = "regressed (unguarded)"
			}
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%.0f\t%.0f\t%+.1f%%\t%.0f\t%.0f\t%+.1f%%\t%s\n",
			nr.Name, or.NsPerOp, nr.NsPerOp, 100*delta(or.NsPerOp, nr.NsPerOp),
			or.AllocsPerOp, nr.AllocsPerOp, 100*delta(or.AllocsPerOp, nr.AllocsPerOp),
			or.BytesPerOp, nr.BytesPerOp, 100*delta(or.BytesPerOp, nr.BytesPerOp),
			verdict)
	}
	for _, or := range oldRes {
		if !seen[or.Name] {
			fmt.Fprintf(tw, "%s\t%.0f\t-\t-\t%.0f\t-\t-\t%.0f\t-\t-\tdropped\n", or.Name, or.NsPerOp, or.AllocsPerOp, or.BytesPerOp)
		}
	}
	tw.Flush()
	if regressions > 0 {
		return fmt.Errorf("benchdiff: %d regression(s) beyond thresholds (time %+.0f%%, allocs and bytes %+.0f%%)",
			regressions, 100*o.timeThreshold, 100*o.allocThreshold)
	}
	fmt.Fprintln(w, "benchdiff: no regressions")
	return nil
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs benchdiff on its command-line arguments and returns the exit
// code: 0 clean, 1 regressed (or unreadable input), 2 bad usage.
func cli(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	fl.Float64Var(&o.timeThreshold, "time-threshold", 0.20,
		"fractional ns/op increase tolerated before failing (negative disables the time gate)")
	fl.Float64Var(&o.allocThreshold, "alloc-threshold", 0.05,
		"fractional allocs/op and B/op increase tolerated before failing (negative disables the alloc gate)")
	fl.StringVar(&o.guard, "guard", "",
		"regexp of benchmark names allowed to fail the gate (empty = all)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] OLD NEW")
		return 2
	}
	if err := run(o, fl.Arg(0), fl.Arg(1), stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
