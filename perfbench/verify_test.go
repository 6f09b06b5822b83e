package main

import (
	"io"
	"testing"

	"cheriabi/internal/bodiag"
)

func fakeUnits() []Unit {
	return []Unit{
		{Name: "a/mips64", Runs: []Run{{Output: digest("a"), Insts: 100, Cycles: 400, L2: 7}}},
		{Name: "b/cheriabi", Runs: []Run{{Exit: -1, Signal: 34, Output: digest(""), Insts: 50, Cycles: 90, L2: 3}}},
		{Name: "fleet", Runs: []Run{{Insts: 9, Cycles: 10}}, Fleet: &Fleet{TraceHash: 42, P50: 5, P99: 9, Makespan: 10}},
	}
}

func TestFlippedPinnedCounterFailsOneUnit(t *testing.T) {
	pins := fakeUnits()
	noRefFailures := func(u []Unit) []bool { return make([]bool, len(u)) }
	flips := []func(u []Unit){
		func(u []Unit) { u[0].Runs[0].Insts ^= 1 },
		func(u []Unit) { u[0].Runs[0].Cycles ^= 1 },
		func(u []Unit) { u[1].Runs[0].L2 ^= 1 },
		func(u []Unit) { u[1].Runs[0].Signal = 0 },
		func(u []Unit) { u[0].Runs[0].Output = digest("b") },
		func(u []Unit) { u[2].Fleet.TraceHash ^= 1 },
		func(u []Unit) { u[2].Fleet.P99 ^= 1 },
	}
	for i, flip := range flips {
		units := fakeUnits()
		flip(units)
		passes := []passResult{{units: fakeUnits()}, {units: units}}
		attempted, failed := verify(passes, noRefFailures, false, pins, true, io.Discard)
		if attempted != 6 || failed != 1 {
			t.Errorf("flip %d: attempted %d failed %d, want 6 and 1", i, attempted, failed)
		}
		// Away from the default seed only the reference path counts.
		if _, failed := verify(passes, noRefFailures, false, pins, false, io.Discard); failed != 0 {
			t.Errorf("flip %d unpinned: failed %d, want 0", i, failed)
		}
	}
}

func TestVerifyCountsReferenceFailures(t *testing.T) {
	passes := []passResult{{units: fakeUnits()}}
	second := func(u []Unit) []bool { return []bool{false, true, false} }
	if _, failed := verify(passes, second, false, fakeUnits(), true, io.Discard); failed != 1 {
		t.Errorf("one reference mismatch: failed %d, want 1", failed)
	}
	none := func(u []Unit) []bool { return make([]bool, len(u)) }
	if _, failed := verify(passes, none, true, fakeUnits(), true, io.Discard); failed != 3 {
		t.Errorf("failed reference path: failed %d, want every unit", failed)
	}
	if _, failed := verify(passes, none, false, nil, true, io.Discard); failed != 3 {
		t.Errorf("missing pins: failed %d, want every unit", failed)
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	_, runs := bodiagSlice()
	for name, n := range map[string]int{"fig4": 34, "bodiag": len(runs), "loadgen": 1} {
		if len(pins[name]) != n {
			t.Errorf("pins.json has %d %s units, want %d", len(pins[name]), name, n)
		}
	}
}

func TestBodiagCheck(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	b := &bodiagBench{}
	b.cases, b.runs = bodiagSlice()
	table, _ := b.tally(pins["bodiag"])
	b.ref = &bodiag.Result{Total: len(b.cases), Detected: table}
	count := func(failed []bool) int {
		n := 0
		for _, f := range failed {
			if f {
				n++
			}
		}
		return n
	}
	if n := count(b.check(pins["bodiag"])); n != 0 {
		t.Fatalf("the pinned pass fails %d units against its own table", n)
	}
	// Find a detected faulty run and an OK run.
	detected, ok := -1, -1
	for i, r := range b.runs {
		run := pins["bodiag"][i].Runs[0]
		if r.v != bodiag.VarOK && run.Signal != 0 && detected < 0 {
			detected = i
		}
		if r.v == bodiag.VarOK && ok < 0 {
			ok = i
		}
	}
	if detected < 0 || ok < 0 {
		t.Fatal("the slice has no detected faulty run or no OK run")
	}
	units := fakeUnitsFrom(pins["bodiag"])
	units[detected].Runs[0] = Run{}
	if n := count(b.check(units)); n != len(units) {
		t.Errorf("a missed detection fails %d units, want the whole pass", n)
	}
	units = fakeUnitsFrom(pins["bodiag"])
	units[ok].Runs[0].Signal = 34
	failed := b.check(units)
	if !failed[ok] || count(failed) != 1 {
		t.Errorf("a flagged OK variant fails %d units, want only itself", count(failed))
	}
}

// fakeUnitsFrom deep-copies units so a test can alter one.
func fakeUnitsFrom(units []Unit) []Unit {
	out := make([]Unit, len(units))
	for i, u := range units {
		out[i] = u
		out[i].Runs = append([]Run(nil), u.Runs...)
	}
	return out
}
