package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
)

// cellPrint is the simulated fingerprint of one cell: a hash over every
// field of its results, so two runs agree on it only if they simulated the
// same device bit for bit.
type cellPrint struct {
	name string
	fp   string
}

// fingerprint hashes the JSON encoding of vs. JSON writes every exported
// field and formats floats in their shortest round-trip form, so the hash
// changes with any bit of any field.
func fingerprint(vs ...any) string {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("fingerprint: %v", err)) // only plain result structs are hashed
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// refSeed is the seed the committed reference fingerprints were taken at.
const refSeed = 42

// reference holds the committed fingerprints: workload → cell → hash.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadReference() (referenceFile, error) {
	var r referenceFile
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return r, fmt.Errorf("reference.json: %w", err)
	}
	if r.Seed != refSeed {
		return r, fmt.Errorf("reference.json: seed %d, want %d", r.Seed, refSeed)
	}
	return r, nil
}

// diffPrints compares got against want cell by cell and returns one line
// per cell that is missing or differs.
func diffPrints(got []cellPrint, want map[string]string) []string {
	var out []string
	seen := make(map[string]bool, len(got))
	for _, c := range got {
		seen[c.name] = true
		if w, ok := want[c.name]; !ok {
			out = append(out, fmt.Sprintf("%s: no reference fingerprint", c.name))
		} else if w != c.fp {
			out = append(out, fmt.Sprintf("%s: fingerprint %s, reference %s", c.name, c.fp, w))
		}
	}
	var missing []string
	for name := range want {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		out = append(out, fmt.Sprintf("%s: not simulated", name))
	}
	return out
}

// samePrints compares two runs of the same cells (same order) and returns
// one line per cell that differs.
func samePrints(a, b []cellPrint) []string {
	if len(a) != len(b) {
		return []string{fmt.Sprintf("%d cells against %d", len(a), len(b))}
	}
	var out []string
	for i := range a {
		if a[i] != b[i] {
			out = append(out, fmt.Sprintf("%s: %s against %s: %s", a[i].name, a[i].fp, b[i].name, b[i].fp))
		}
	}
	return out
}

// writeReference records each workload's fingerprints at refSeed.
func writeReference(path string, prints map[string][]cellPrint) error {
	r := referenceFile{Seed: refSeed, Workloads: make(map[string]map[string]string)}
	for w, cells := range prints {
		m := make(map[string]string, len(cells))
		for _, c := range cells {
			m[c.name] = c.fp
		}
		r.Workloads[w] = m
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
