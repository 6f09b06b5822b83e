package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "pass", parent: -1, start: ms(0), end: ms(100)},
		{name: "unit", parent: 0, start: ms(10), end: ms(60)},
		{name: "kernel.spawn", parent: 1, start: ms(10), end: ms(20)},
		{name: "kernel.run", parent: 1, start: ms(15), end: ms(40)},  // overlaps spawn
		{name: "kernel.reap", parent: 1, start: ms(55), end: ms(70)}, // runs past its parent
		{name: "unit", parent: 0, start: ms(70), end: ms(90)},
	}
	want := []time.Duration{ms(30), ms(15), ms(10), ms(25), ms(15), ms(20)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestLayerSeconds(t *testing.T) {
	tr := &tracer{}
	at := func(name string, parent int, start, end int) {
		tr.spans = append(tr.spans, span{name: name, parent: parent, start: ms(start), end: ms(end)})
	}
	// Three set-ups that boot for 10, 30 and 20 ms, then two passes
	// that run for 100 and 300 ms, the second in two calls.
	at("setup", -1, 0, 10)
	at("kernel.boot", 0, 0, 10)
	at("setup", -1, 10, 40)
	at("kernel.boot", 2, 10, 40)
	at("setup", -1, 40, 60)
	at("kernel.boot", 4, 40, 60)
	at("pass", -1, 100, 200)
	at("kernel.run", 6, 100, 200)
	at("pass", -1, 200, 500)
	at("kernel.run", 8, 200, 350)
	at("kernel.run", 8, 350, 500)
	got := layerSeconds(tr.spans)
	if got["kernel.boot"] != 0.020 {
		t.Errorf("kernel.boot = %v s, want the median set-up 0.020", got["kernel.boot"])
	}
	if got["kernel.run"] != 0.200 {
		t.Errorf("kernel.run = %v s, want the median pass 0.200", got["kernel.run"])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.begin("pass")
	tr.begin("kernel.clone")
	tr.end()
	tr.begin("kernel.run")
	tr.end()
	tr.end()
	if len(tr.spans) != 3 || tr.spans[0].parent != -1 || tr.spans[1].parent != 0 || tr.spans[2].parent != 0 {
		t.Fatalf("spans = %+v, want a pass with two children", tr.spans)
	}
	var off *tracer // untraced passes run with a nil tracer
	off.begin("pass")
	off.end()
}
