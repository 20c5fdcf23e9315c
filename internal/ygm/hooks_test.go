package ygm

import (
	"testing"

	"ygm/internal/machine"
)

// TestHookFastPathAllocs pins the cost of the oracle instrumentation
// points when disabled: a nil Tap and nil TestHooks must be a branch,
// not an allocation, so production runs are unaffected by the
// simulation-fuzz plumbing.
func TestHookFastPathAllocs(t *testing.T) {
	opts := Options{Scheme: machine.NLNR}
	payload := []byte{1, 2, 3, 4}

	allocs := testing.AllocsPerRun(100, func() {
		opts.tapQueued(0, 1, 5, kindUnicast, payload)
		if opts.dropDelivery(0, payload) || opts.leakDelivery(0, payload) || opts.reorderPacket(0, 1) {
			t.Fatal("nil hooks claimed a delivery or a packet")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled hook path allocated %.1f times per op, want 0", allocs)
	}
}
