package main

import (
	"testing"
	"time"
)

func TestCalibratorScale(t *testing.T) {
	var none *calibrator
	none.start()
	none.between()
	if got := none.finish(); got != 1 {
		t.Errorf("nil calibrator scale = %v, want 1", got)
	}

	c := newCalibrator()
	c.start()
	if c.spent != 0 || len(c.times) != 1 {
		t.Fatalf("after start: spent %v, %d slice times; want 0 and 1", c.spent, len(c.times))
	}
	// Five slices that took 50 ms outvote the real slices start and
	// finish run, so the scale is refSlice over 50 ms.
	for range 5 {
		c.times = append(c.times, 0.05)
	}
	if got, want := c.finish(), refSlice.Seconds()/0.05; got != want {
		t.Errorf("scale = %v, want %v", got, want)
	}
	if c.spent <= 0 {
		t.Errorf("finish's slice was not counted in spent")
	}
}

func TestCalibratorBetweenSpacesSlices(t *testing.T) {
	c := newCalibrator()
	c.start()
	c.between() // the start slice has just ended
	if len(c.times) != 1 {
		t.Errorf("between ran a slice before %v had gone by", sliceEvery)
	}
	c.last = time.Now().Add(-sliceEvery)
	c.between()
	if len(c.times) != 2 {
		t.Errorf("between ran no slice once %v had gone by", sliceEvery)
	}
}

// A slice must not allocate, or it would move alloc_mb and the garbage
// collector's work in the passes it runs between.
func TestSliceDoesNotAllocate(t *testing.T) {
	c := newCalibrator()
	c.times = make([]float64, 0, 64)
	if n := testing.AllocsPerRun(20, c.slice); n != 0 {
		t.Errorf("slice allocates %v times per run", n)
	}
}
