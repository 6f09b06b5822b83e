package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark around the public calls it makes; the program itself is not
// instrumented.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory for one benchmark run. All its methods
// are no-ops on a nil tracer, which is how untraced passes run. It is
// used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun but not ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = time.Since(t.t0)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered := time.Duration(0)
		var curLo, curHi time.Duration
		for k, iv := range ivs {
			if k == 0 || iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerSeconds sums self time by span name within each root span, then
// takes, for every root name (a set-up or a pass), the median of those
// sums over the roots of that name, and adds the medians up. A layer
// called only during set-up thus reports its cost per set-up, and one
// called only while measuring reports its cost per pass.
func layerSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	root := make([]int, len(spans))
	for i, s := range spans {
		root[i] = i
		if s.parent >= 0 {
			root[i] = root[s.parent] // parents precede their children
		}
	}
	perRoot := map[int]map[string]float64{}
	rootsByName := map[string][]int{}
	names := map[string]bool{}
	for i, s := range spans {
		if s.parent < 0 {
			rootsByName[s.name] = append(rootsByName[s.name], i)
			perRoot[i] = map[string]float64{}
			continue
		}
		perRoot[root[i]][s.name] += self[i].Seconds()
		names[s.name] = true
	}
	out := map[string]float64{}
	for name := range names {
		for _, roots := range rootsByName {
			vals := make([]float64, len(roots))
			for k, r := range roots {
				vals[k] = perRoot[r][name]
			}
			out[name] += median(vals)
		}
	}
	return out
}
