package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// shareLayers are the buckets of the CPU fold: the simulator's layers by
// package, the Go runtime, and everything else (experiment, check, pool,
// fault, the standard library outside the runtime, this benchmark).
var shareLayers = []string{"nvm", "sim", "ftl", "ssd", "fs", "interconnect", "obs", "runtime", "other"}

// profileCPU runs f under the CPU profiler and returns the profile's
// samples folded by layer into shares of the total.
func profileCPU(f func()) (map[string]float64, error) {
	tmp, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	if err := pprof.StartCPUProfile(tmp); err != nil {
		tmp.Close()
		return nil, err
	}
	f()
	pprof.StopCPUProfile()
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	var out, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-raw", tmp.Name())
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -raw: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldRaw(&out)
}

// foldRaw parses the text `go tool pprof -raw` prints and charges every
// sample to one layer (see layerOfStack). It returns each layer's share of
// all samples.
func foldRaw(r io.Reader) (map[string]float64, error) {
	type sample struct {
		n    int64
		locs []int
	}
	var samples []sample
	frames := make(map[int][]string) // location id -> functions, innermost first
	section := ""
	lastLoc := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
			continue
		case strings.HasPrefix(line, "Samples:"), strings.HasPrefix(line, "Locations"), strings.HasPrefix(line, "Mappings"):
			section = strings.TrimSuffix(strings.Fields(line)[0], ":")
			continue
		}
		switch section {
		case "Samples":
			head, ids, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue // the column header line
			}
			vals := strings.Fields(head)
			if len(vals) == 0 {
				return nil, fmt.Errorf("pprof -raw: bad sample line %q", line)
			}
			n, err := strconv.ParseInt(vals[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof -raw: bad sample count in %q", line)
			}
			s := sample{n: n}
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw: bad location id in %q", line)
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "Locations":
			// "    12: 0x4a4af1 M=1 pkg.func file:line:col s=N" opens a
			// location; an indented line without the "id:" prefix adds a
			// caller the compiler inlined into it.
			fields := strings.Fields(trimmed)
			if id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":")); err == nil && strings.HasSuffix(fields[0], ":") {
				lastLoc = id
				if len(fields) >= 4 {
					frames[id] = append(frames[id], fields[3])
				}
			} else if lastLoc >= 0 {
				frames[lastLoc] = append(frames[lastLoc], fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(shareLayers))
	for _, name := range shareLayers {
		shares[name] = 0
	}
	var total int64
	for _, s := range samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, frames[id]...)
		}
		shares[layerOfStack(stack)] += float64(s.n)
		total += s.n
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -raw: no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

// layerOfStack names the layer a sample's stack (leaf first) is charged
// to. The innermost simulator frame decides, unless the runtime did the work
// on its behalf: allocation, collection and scheduling reached directly from
// simulator code, and stacks with no simulator frame at all (background
// GC), are the runtime's. Runtime work reached through another
// standard-library package (time.Now, runtime/metrics, fmt, a map's
// implementation) belongs to that package's caller, as do map access and
// memory moves, which are the caller's data-structure work.
func layerOfStack(stack []string) string {
	runtimeBelow := false
	for _, fn := range stack {
		pkg := packageOf(fn)
		switch {
		case strings.HasPrefix(pkg, "oocnvm/") || pkg == "main":
			if runtimeBelow {
				return "runtime"
			}
			return repoLayer(pkg)
		case pkg == "runtime":
			runtimeBelow = !strings.HasPrefix(fn, "runtime.map") && !strings.HasPrefix(fn, "runtime.mem")
		default:
			runtimeBelow = false
		}
	}
	if runtimeBelow {
		return "runtime"
	}
	return "other"
}

// repoLayer maps a package of this module to its fold bucket.
func repoLayer(pkg string) string {
	name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "oocnvm/internal/"), "/")
	switch name {
	case "nvm", "sim", "ftl", "ssd", "fs", "interconnect", "obs":
		return name
	case "ufs":
		return "fs"
	}
	return "other"
}

// packageOf extracts the import path from a symbol such as
// "oocnvm/internal/nvm.(*Device).schedule" or
// "oocnvm/internal/pool.(*Buffers[go.shape.struct {...}]).Get".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
