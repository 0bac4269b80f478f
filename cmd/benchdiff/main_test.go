package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeResults(t *testing.T, name string, rs []result) string {
	t.Helper()
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseline() []result {
	return []result{
		{Name: "BenchmarkA", Iterations: 100, NsPerOp: 1000, BytesPerOp: 4096, AllocsPerOp: 50},
		{Name: "BenchmarkB", Iterations: 100, NsPerOp: 2000, BytesPerOp: 1 << 20, AllocsPerOp: 10},
	}
}

func TestBenchdiffDetectsInjectedSlowdown(t *testing.T) {
	// The acceptance case: a synthetic 20% ns/op slowdown on one benchmark
	// must fail the gate at the default 20% threshold (20% over is > 20%?
	// no — inject a little past it to clear the strict inequality).
	slow := baseline()
	slow[0].NsPerOp = 1000 * 1.21
	oldPath := writeResults(t, "old.json", baseline())
	newPath := writeResults(t, "new.json", slow)
	var out bytes.Buffer
	err := run(options{timeThreshold: 0.20, allocThreshold: 0.05}, oldPath, newPath, &out)
	if err == nil {
		t.Fatalf("20%%+ slowdown passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report does not flag the regression:\n%s", out.String())
	}
}

func TestBenchdiffPassesWithinNoise(t *testing.T) {
	wobble := baseline()
	wobble[0].NsPerOp = 1000 * 1.10 // inside the 20% band
	oldPath := writeResults(t, "old.json", baseline())
	newPath := writeResults(t, "new.json", wobble)
	var out bytes.Buffer
	if err := run(options{timeThreshold: 0.20, allocThreshold: 0.05}, oldPath, newPath, &out); err != nil {
		t.Fatalf("10%% wobble failed the gate: %v\n%s", err, out.String())
	}
}

func TestBenchdiffAllocGateIndependentOfTime(t *testing.T) {
	// CI mode: the time gate disabled (machines differ) but a deterministic
	// allocation increase still fails.
	leaky := baseline()
	leaky[0].NsPerOp = 1000 * 5 // wildly slower, but the time gate is off
	leaky[1].AllocsPerOp = 12   // +20% allocations
	oldPath := writeResults(t, "old.json", baseline())
	newPath := writeResults(t, "new.json", leaky)
	var out bytes.Buffer
	err := run(options{timeThreshold: -1, allocThreshold: 0.05}, oldPath, newPath, &out)
	if err == nil {
		t.Fatalf("allocation regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report does not flag the alloc regression:\n%s", out.String())
	}
	// Same files with the alloc gate also disabled: clean.
	out.Reset()
	if err := run(options{timeThreshold: -1, allocThreshold: -1}, oldPath, newPath, &out); err != nil {
		t.Fatalf("all gates disabled still failed: %v", err)
	}
}

func TestBenchdiffAllocGateCoversBytes(t *testing.T) {
	// A structure that grows in place (few objects, many bytes) must fail
	// the allocation gate even though allocs/op is unchanged.
	bloated := baseline()
	bloated[1].BytesPerOp *= 1.20
	oldPath := writeResults(t, "old.json", baseline())
	newPath := writeResults(t, "new.json", bloated)
	var out, errOut bytes.Buffer
	// The flags make bench-gate passes.
	code := cli([]string{"-time-threshold=-1", "-alloc-threshold=0.05", oldPath, newPath}, &out, &errOut)
	if code == 0 {
		t.Fatalf("+20%% B/op passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "+20.0%") {
		t.Errorf("report does not flag the bytes regression:\n%s", out.String())
	}
	if code := cli([]string{"-time-threshold=-1", "-alloc-threshold=0.05", oldPath, oldPath}, &out, &errOut); code != 0 {
		t.Fatalf("identical files exit %d: %s", code, errOut.String())
	}
}

func TestBenchdiffGuardScopesTheGate(t *testing.T) {
	slow := baseline()
	slow[0].NsPerOp = 3000 // BenchmarkA regresses badly
	oldPath := writeResults(t, "old.json", baseline())
	newPath := writeResults(t, "new.json", slow)
	var out bytes.Buffer
	// Guard only BenchmarkB: A's regression is reported but does not gate.
	if err := run(options{timeThreshold: 0.20, allocThreshold: 0.05, guard: "^BenchmarkB$"},
		oldPath, newPath, &out); err != nil {
		t.Fatalf("unguarded regression failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "regressed (unguarded)") {
		t.Errorf("unguarded regression not reported:\n%s", out.String())
	}
}

func TestBenchdiffNewAndDroppedNeverGate(t *testing.T) {
	oldPath := writeResults(t, "old.json", baseline())
	newPath := writeResults(t, "new.json", []result{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 50},
		{Name: "BenchmarkC", NsPerOp: 9999, AllocsPerOp: 999},
	})
	var out bytes.Buffer
	if err := run(options{timeThreshold: 0.20, allocThreshold: 0.05}, oldPath, newPath, &out); err != nil {
		t.Fatalf("new/dropped benchmarks failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new") || !strings.Contains(out.String(), "dropped") {
		t.Errorf("new/dropped rows missing:\n%s", out.String())
	}
}

func TestBenchdiffReadsHistoryJSONL(t *testing.T) {
	// NEW side from a history file: only the last line counts.
	older, _ := json.Marshal(map[string]any{"results": baseline()})
	slow := baseline()
	slow[0].NsPerOp = 1500
	newer, _ := json.Marshal(map[string]any{"results": slow})
	histPath := filepath.Join(t.TempDir(), "hist.jsonl")
	if err := os.WriteFile(histPath, []byte(string(older)+"\n"+string(newer)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	oldPath := writeResults(t, "old.json", baseline())
	var out bytes.Buffer
	err := run(options{timeThreshold: 0.20, allocThreshold: 0.05}, oldPath, histPath, &out)
	if err == nil {
		t.Fatalf("history's last (regressed) run passed the gate:\n%s", out.String())
	}
}
