package main

import (
	"strings"
	"testing"
)

func TestCheckFleet(t *testing.T) {
	for _, tc := range []struct {
		clients, conns, requests int
		bad                      string // flag named in the error, or "" for none
	}{
		{4, 8, 8, ""},
		{1, 1, 1, ""},
		{0, 8, 8, "-clients"},
		{4, 0, 8, "-conns"},
		{4, 8, -3, "-requests"},
		{0, 8, -3, "-clients"},
	} {
		err := checkFleet(tc.clients, tc.conns, tc.requests)
		if tc.bad == "" {
			if err != nil {
				t.Errorf("checkFleet(%d, %d, %d) = %v, want nil", tc.clients, tc.conns, tc.requests, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.bad+" ") {
			t.Errorf("checkFleet(%d, %d, %d) = %v, want an error naming %s", tc.clients, tc.conns, tc.requests, err, tc.bad)
		}
	}
}
