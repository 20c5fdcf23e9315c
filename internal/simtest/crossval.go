package simtest

import (
	"fmt"
	"sort"

	"ygm/internal/synch"
	"ygm/internal/ygm"
)

// CrossValidateSync replays one case's command script under the
// bulk-synchronous mailbox, whose sends only queue until WaitEmpty runs
// the phase's rounds, and cross-checks the two executions.
// It is the strongest form of the synchronizability claim the harness
// can make: the lazy (pseudo-asynchronous) run is not just certified
// reorder-equivalent to *some* synchronous execution — an actual
// synchronous execution of the very same command script exists, both
// runs pass every oracle, and both certificates place every message in
// the same application-phase window.
//
// The comparison is possible because the harness's command script is a
// deterministic function of the case alone: top-level sends draw from
// per-rank seeded generators in program order, and handler spawns
// derive key, destination, and filler from the parent key (see msgKey),
// so delivery interleaving — the one thing the variants differ in —
// cannot change what is sent. Spawn *order* at a rank still tracks
// delivery order, so the script is compared as a multiset, not a
// sequence.
func CrossValidateSync(c Case) error {
	lazy := c
	lazy.Variant = ygm.LazyExchange
	syn := c
	syn.Variant = ygm.SyncExchange
	syn.TestEmptyBarrier = false

	outL, logL := runCaseLogged(lazy, nil)
	if err := outL.Err(); err != nil {
		return fmt.Errorf("crossval: lazy run failed: %v", err)
	}
	outS, logS := runCaseLogged(syn, nil)
	if err := outS.Err(); err != nil {
		return fmt.Errorf("crossval: sync replay failed: %v", err)
	}
	if err := compareScripts(logL, logS); err != nil {
		return fmt.Errorf("crossval: %v", err)
	}
	if err := comparePhaseWindows(outL.Cert, outS.Cert); err != nil {
		return fmt.Errorf("crossval: %v", err)
	}
	return nil
}

// scriptSend is one command of the script: what was sent, regardless of
// when.
type scriptSend struct {
	bcast bool
	dst   int32
}

// scriptOf extracts a run's command script from its event log: the
// send-command map and each rank's multiset of received message keys
// (sorted, so slices compare directly).
func scriptOf(l *synch.Log) (map[uint64]scriptSend, [][]uint64) {
	sends := make(map[uint64]scriptSend)
	recvs := make([][]uint64, l.World)
	for r, evs := range l.Events {
		for _, ev := range evs {
			switch ev.Kind {
			case synch.KindSend:
				sends[ev.Key] = scriptSend{dst: ev.Dst}
			case synch.KindBcast:
				sends[ev.Key] = scriptSend{bcast: true, dst: -1}
			case synch.KindRecv:
				recvs[r] = append(recvs[r], ev.Key)
			}
		}
	}
	for r := range recvs {
		sort.Slice(recvs[r], func(i, j int) bool { return recvs[r][i] < recvs[r][j] })
	}
	return sends, recvs
}

// compareScripts checks two runs issued the identical command script:
// the same send commands (key, kind, destination) and the same delivery
// multiset at every rank.
func compareScripts(a, b *synch.Log) error {
	if a.World != b.World {
		return fmt.Errorf("world size diverged: %d vs %d", a.World, b.World)
	}
	sa, ra := scriptOf(a)
	sb, rb := scriptOf(b)
	if len(sa) != len(sb) {
		return fmt.Errorf("command scripts diverged: %d vs %d sends", len(sa), len(sb))
	}
	for key, cmd := range sa {
		other, ok := sb[key]
		if !ok {
			return fmt.Errorf("command scripts diverged: message %s only sent by the lazy run", synch.MsgRef{Key: key, Copy: -1})
		}
		if cmd != other {
			return fmt.Errorf("command scripts diverged on message %s: lazy sent {bcast:%v dst:%d}, sync sent {bcast:%v dst:%d}",
				synch.MsgRef{Key: key, Copy: -1}, cmd.bcast, cmd.dst, other.bcast, other.dst)
		}
	}
	for r := range ra {
		if len(ra[r]) != len(rb[r]) {
			return fmt.Errorf("rank %d delivery sets diverged: %d vs %d deliveries", r, len(ra[r]), len(rb[r]))
		}
		for i := range ra[r] {
			if ra[r][i] != rb[r][i] {
				return fmt.Errorf("rank %d delivery sets diverged at message %s vs %s", r,
					synch.MsgRef{Key: ra[r][i], Copy: -1}, synch.MsgRef{Key: rb[r][i], Copy: -1})
			}
		}
	}
	return nil
}

// comparePhaseWindows checks that both certificates place every message
// instance between the same quiescence barriers. Round numbering is
// private to each certificate, but the barriers are the run's
// application phases, so the barrier-window index of a message — how
// many barriers complete before its round — is comparable across runs.
func comparePhaseWindows(a, b *synch.Certificate) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing certificate (lazy: %v, sync: %v)", a != nil, b != nil)
	}
	if len(a.Barrier) != len(b.Barrier) {
		return fmt.Errorf("barrier counts diverged: %d vs %d", len(a.Barrier), len(b.Barrier))
	}
	if len(a.Phase) != len(b.Phase) {
		return fmt.Errorf("certified message sets diverged: %d vs %d instances", len(a.Phase), len(b.Phase))
	}
	for ref, round := range a.Phase {
		other, ok := b.Phase[ref]
		if !ok {
			return fmt.Errorf("message %s certified only by the lazy run", ref)
		}
		wa, wb := barrierWindow(a, round), barrierWindow(b, other)
		if wa != wb {
			return fmt.Errorf("message %s certified in barrier window %d by the lazy run but %d by the sync replay", ref, wa, wb)
		}
	}
	return nil
}

// barrierWindow counts the certificate's barriers scheduled strictly
// before round — the application phase the round falls in.
func barrierWindow(c *synch.Certificate, round int) int {
	n := 0
	for _, br := range c.Barrier {
		if br < round {
			n++
		}
	}
	return n
}
