package main

import "testing"

func TestNearestRank(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50}} {
		if got := nearestRank(vals, c.p); got != c.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", vals, c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("nearestRank(nil) = %v, want 0", got)
	}
	// Unsorted input is sorted on a copy.
	in := []float64{3, 1, 2}
	if got := nearestRank(in, 50); got != 2 || in[0] != 3 {
		t.Errorf("nearestRank(%v, 50) = %v and modified its input", in, got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // rank 90: 10 beyond
		{99, 90, false},  // rank 90: 9 beyond
		{20, 50, true},   // rank 10: 10 beyond
		{19, 50, false},  // rank 10: 9 beyond
		{1000, 99, true}, // rank 990: 10 beyond
		{999, 99, false}, // rank 990: 9 beyond
		{0, 50, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}
