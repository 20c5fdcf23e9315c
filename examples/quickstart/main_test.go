package main

import (
	"bytes"
	"maps"
	"strings"
	"testing"
)

// TestQuickstart runs the program on the simulated and the in-process
// real-time wire: rank 0 receives one greeting from each other rank and
// answers each with a broadcast, so every other rank receives three
// acks. Delivery times differ between runs and wires; the deliveries do
// not.
func TestQuickstart(t *testing.T) {
	want := map[string]int{
		`rank 0 received "hello from (0,1)"`: 1,
		`rank 0 received "hello from (1,0)"`: 1,
		`rank 0 received "hello from (1,1)"`: 1,
		`rank 1 received "ack"`:              3,
		`rank 2 received "ack"`:              3,
		`rank 3 received "ack"`:              3,
	}
	for _, args := range [][]string{nil, {"-wire=local"}} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("quickstart %v: %v", args, err)
		}
		got := map[string]int{}
		for _, line := range strings.Split(out.String(), "\n") {
			if msg, _, ok := strings.Cut(line, " at t="); ok {
				got[msg]++
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("quickstart %v delivered %v, want %v\noutput:\n%s", args, got, want, out.String())
		}
	}
}
