package simtest

import (
	"fmt"
	"sync/atomic"

	"ygm/internal/machine"
	"ygm/internal/ygm"
)

// Mutant names a deliberate fault injected through ygm.TestHooks. The
// mutation smoke test proves the oracle has teeth: every mutant must be
// detected (a non-nil RunCase error) within the default seed budget, or
// the harness is vacuously green.
type Mutant int

const (
	// MutantNone runs the clean tree.
	MutantNone Mutant = iota
	// MutantWrongHop routes every unicast record as if the scheme were
	// NodeRemote, regardless of the configured scheme. Messages still
	// arrive — NodeRemote routing is complete — but hop sequences break
	// path conformance (and, under NLNR, the channel constraint).
	MutantWrongHop
	// MutantDropDelivery silently discards exactly one delivery per
	// run, leaving all transport counters balanced: only the
	// exactly-once check over the event log (and the barrier check)
	// can see it.
	MutantDropDelivery
	// MutantPrematureTerm forces every phase-ending decision to true: a
	// lazy rank joins the epoch's barrier at its first wait point, with
	// its packets possibly unacknowledged, and a round generation
	// concludes whatever counts it reduced — releasing WaitEmpty while
	// messages may still be in flight.
	MutantPrematureTerm
	// MutantReorderDelivery holds the first record of every received
	// packet and dispatches it after the packet's other records,
	// inverting per-channel FIFO wherever two same-channel deliveries
	// were coalesced into one packet. Every exactly-once, path, and
	// termination counter stays balanced: only the synchronizability
	// oracle can see it.
	MutantReorderDelivery
	// MutantPhaseLeak stashes one unicast delivery and releases it at
	// the next pass of the quiescence loop — late, but inside the same
	// quiescence window, so the delivery oracle sees a normal
	// exactly-once run while per-channel delivery order breaks.
	MutantPhaseLeak
)

// Mutants lists the injectable faults (excluding MutantNone).
var Mutants = []Mutant{MutantWrongHop, MutantDropDelivery, MutantPrematureTerm, MutantReorderDelivery, MutantPhaseLeak}

// OrderingMutant reports whether m breaks only delivery ordering —
// invisible to the exactly-once oracle by design, detectable only by
// the synchronizability oracle. The mutation smoke test pins both
// halves of that claim.
func (m Mutant) OrderingMutant() bool {
	return m == MutantReorderDelivery || m == MutantPhaseLeak
}

// String names the mutant.
func (m Mutant) String() string {
	switch m {
	case MutantNone:
		return "none"
	case MutantWrongHop:
		return "wronghop"
	case MutantDropDelivery:
		return "drop"
	case MutantPrematureTerm:
		return "earlyterm"
	case MutantReorderDelivery:
		return "reorder"
	case MutantPhaseLeak:
		return "phaseleak"
	}
	return fmt.Sprintf("Mutant(%d)", int(m))
}

// ParseMutant inverts String.
func ParseMutant(s string) (Mutant, error) {
	for _, m := range append([]Mutant{MutantNone}, Mutants...) {
		if m.String() == s {
			return m, nil
		}
	}
	return MutantNone, fmt.Errorf("simtest: unknown mutant %q", s)
}

// hooks builds a fresh fault-injection state for one run. The returned
// pointer is shared by every rank's Options, so per-run mutant state
// (the single-drop latch) is global to the run.
func (m Mutant) hooks() *ygm.TestHooks {
	switch m {
	case MutantNone:
		return nil
	case MutantWrongHop:
		return &ygm.TestHooks{
			NextHop: func(t machine.Topology, s machine.Scheme, cur, dst machine.Rank) machine.Rank {
				return t.NextHop(machine.NodeRemote, cur, dst)
			},
		}
	case MutantDropDelivery:
		var dropped atomic.Bool
		return &ygm.TestHooks{
			DropDelivery: func(at machine.Rank, payload []byte) bool {
				return dropped.CompareAndSwap(false, true)
			},
		}
	case MutantPrematureTerm:
		return &ygm.TestHooks{
			ForceVerdict: func(bool) bool { return true },
		}
	case MutantReorderDelivery:
		return &ygm.TestHooks{
			ReorderPacket: func(at, src machine.Rank) bool { return true },
		}
	case MutantPhaseLeak:
		var leaked atomic.Bool
		return &ygm.TestHooks{
			LeakDelivery: func(at machine.Rank, payload []byte) bool {
				// Claim the first unicast delivery of the run (broadcast
				// copies are exempt from the per-channel FIFO the
				// synchronizability oracle checks, so leaking one would
				// be invisible to every oracle).
				if m, err := decodePayload(payload); err != nil || m.bcast {
					return false
				}
				return leaked.CompareAndSwap(false, true)
			},
		}
	}
	panic(fmt.Sprintf("simtest: unknown mutant %d", int(m)))
}
