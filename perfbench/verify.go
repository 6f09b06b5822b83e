package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
)

// Run is what one simulated program run must reproduce exactly.
type Run struct {
	Exit   int    `json:"exit"`
	Signal int    `json:"signal"`
	Output string `json:"output"` // FNV-1a 64 digest of stdout
	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles"`
	// L2 is the machine's L2 miss count after the run; zero where the
	// fleet runner does not expose it.
	L2  uint64 `json:"l2_misses"`
	Err string `json:"err,omitempty"`
}

// Fleet is what one load-generator fleet run must reproduce beyond its
// machines' runs.
type Fleet struct {
	TraceHash uint64 `json:"trace_hash"`
	Delivered uint64 `json:"delivered"`
	DataBytes uint64 `json:"data_bytes"`
	P50       uint64 `json:"p50_cycles"`
	P99       uint64 `json:"p99_cycles"`
	Makespan  uint64 `json:"makespan_cycles"`
	Checksums string `json:"checksums"` // digest of the checksum lines
}

// Unit is one verified attempt: a program run (fig4, bodiag) or a fleet
// run (loadgen, one Run per machine).
type Unit struct {
	Name  string `json:"name"`
	Runs  []Run  `json:"runs"`
	Fleet *Fleet `json:"fleet,omitempty"`
}

func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// defaultSeed is the seed the pins were recorded at.
const defaultSeed = 1

// pinsJSON holds every unit's outcome for each workload at defaultSeed,
// as written by -write-pins.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string][]Unit, error) {
	var pins map[string][]Unit
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// writePins records one pass's units as the pins for a workload,
// keeping the other workloads' pins.
func writePins(path, workload string, units []Unit) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	if pins == nil {
		pins = map[string][]Unit{}
	}
	pins[workload] = units
	// One unit per line keeps a pin change reviewable as a line diff.
	names := make([]string, 0, len(pins))
	for name := range pins {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("{")
	for i, name := range names {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "\n%q: [", name)
		for j, u := range pins[name] {
			b, err := json.Marshal(u)
			if err != nil {
				return err
			}
			if j > 0 {
				buf.WriteString(",")
			}
			buf.WriteString("\n  ")
			buf.Write(b)
		}
		buf.WriteString("\n]")
	}
	buf.WriteString("\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// mismatches marks each unit of a pass that differs from the unit at the
// same index of want (the pins or a reference pass). A unit with nothing
// to compare against fails, so a missing pin is never mistaken for a
// match.
func mismatches(units, want []Unit) []bool {
	failed := make([]bool, len(units))
	for i, u := range units {
		failed[i] = i >= len(want) || !reflect.DeepEqual(u, want[i])
	}
	return failed
}
