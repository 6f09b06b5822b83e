package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is shared, and the speed of unchanged
// code on it drifts by tens of percent over minutes, well beyond the
// bounds a regression check needs. A calibrator follows that drift: it
// times a fixed reference slice of work, independent of the repo's code,
// before, during and after every set-up and pass, and host times are
// reported in reference seconds, the time the work would take on a host
// where the slice takes refSlice. A change to the program leaves the
// slice alone, so it moves reference seconds as it moves host seconds.
//
// The slice is xorshift, Go map updates and a sort over a few hundred
// KiB: branchy, hashing, cache-resident work like an interpreter's. On
// the 2-core host its time correlated with pass times at 0.9 on fig4 and
// bodiag and 0.6 on loadgen's short passes, and dividing by it cut the
// spread of 30 s medians taken over five minutes from 21% to 8% (fig4),
// 13% to 7% (bodiag) and 15% to 5% (loadgen). Memory-bound pointer
// chases and a plain ALU loop tracked worse.
const (
	// refSlice is a reference slice's nominal duration. It is close to
	// what the slice takes on the 2-core Xeon the bounds were set on.
	refSlice = time.Millisecond
	// sliceEvery spaces the slices run between a pass's units, so they
	// cost about 4% of a pass.
	sliceEvery = 25 * time.Millisecond
	// sliceKeys is the slice's size.
	sliceKeys = 8192
)

// calibrator runs reference slices and scales host times by them. Its
// methods are no-ops on a nil calibrator, which is how pins are recorded.
// It is used from one goroutine.
type calibrator struct {
	m     map[uint64]uint64
	keys  []uint64
	sink  uint64
	last  time.Time     // when the last slice ended
	spent time.Duration // slice time since the pass began
	times []float64     // slice times since start, in seconds
}

// newCalibrator returns a calibrator whose slices, once this first one
// has grown its map and key buffer, allocate nothing.
func newCalibrator() *calibrator {
	c := &calibrator{m: make(map[uint64]uint64, sliceKeys), keys: make([]uint64, 0, sliceKeys)}
	c.slice()
	return c
}

// slice runs one reference slice and records its time.
func (c *calibrator) slice() {
	t := time.Now()
	clear(c.m)
	c.keys = c.keys[:0]
	x := uint64(88172645463325252)
	for i := range uint64(sliceKeys) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.m[x&0xffff] += i
		c.keys = append(c.keys, x)
	}
	slices.Sort(c.keys)
	c.sink += c.keys[0] + uint64(len(c.m))
	c.last = time.Now()
	d := c.last.Sub(t)
	c.spent += d
	c.times = append(c.times, d.Seconds())
}

// start forgets earlier slices and runs one, before a set-up or pass is
// timed. spent then counts only the slices run inside it.
func (c *calibrator) start() {
	if c == nil {
		return
	}
	c.times = c.times[:0]
	c.slice()
	c.spent = 0
}

// between runs a slice if sliceEvery has gone by since the last one. A
// pass calls it after timing each unit, so units exclude it.
func (c *calibrator) between() {
	if c != nil && time.Since(c.last) >= sliceEvery {
		c.slice()
	}
}

// finish runs a last slice after a set-up or pass was timed and returns
// the scale from its host seconds to reference seconds: refSlice over
// the median slice time since start.
func (c *calibrator) finish() float64 {
	if c == nil {
		return 1
	}
	c.slice()
	return refSlice.Seconds() / median(c.times)
}
