package synch

import (
	"strings"
	"testing"

	"ygm/internal/machine"
)

// logBuilder assembles hand-written event logs for checker tests.
type logBuilder struct {
	l *Log
}

func newLog(world int) *logBuilder {
	return &logBuilder{l: &Log{World: world, Events: make([][]Event, world)}}
}

func (b *logBuilder) send(rank int, key uint64, dst int) *logBuilder {
	b.l.Events[rank] = append(b.l.Events[rank], Event{Kind: KindSend, Key: key, Dst: int32(dst)})
	return b
}

func (b *logBuilder) spawn(rank int, key uint64, dst int, parent uint64) *logBuilder {
	b.l.Events[rank] = append(b.l.Events[rank],
		Event{Kind: KindSend, Key: key, Dst: int32(dst), Spawned: true, Parent: parent})
	return b
}

func (b *logBuilder) bcast(rank int, key uint64) *logBuilder {
	b.l.Events[rank] = append(b.l.Events[rank], Event{Kind: KindBcast, Key: key, Dst: -1})
	return b
}

func (b *logBuilder) recv(rank int, key uint64) *logBuilder {
	b.l.Events[rank] = append(b.l.Events[rank], Event{Kind: KindRecv, Key: key, Dst: -1})
	return b
}

func (b *logBuilder) barrier(rank int, id uint64) *logBuilder {
	b.l.Events[rank] = append(b.l.Events[rank], Event{Kind: KindBarrier, Key: id, Dst: -1})
	return b
}

// mustOK asserts a log checks out synchronizable and its certificate
// survives the independent validator.
func mustOK(t *testing.T, l *Log) *Certificate {
	t.Helper()
	v := Check(l)
	if !v.OK {
		t.Fatalf("expected synchronizable, got violation: %v", v.Violation)
	}
	if v.Cert == nil {
		t.Fatalf("OK verdict without certificate")
	}
	if err := ValidateCertificate(l, v.Cert); err != nil {
		t.Fatalf("checker certificate rejected by validator: %v", err)
	}
	return v.Cert
}

func TestCheckEmptyLog(t *testing.T) {
	cert := mustOK(t, newLog(4).l)
	if cert.Rounds != 0 {
		t.Fatalf("empty log wants 0 rounds, got %d", cert.Rounds)
	}
}

func TestCheckPingPong(t *testing.T) {
	// A sends k1 to B; B's handler responds with k2. The causal spawn
	// link forces the response one round after the request.
	b := newLog(2)
	b.send(0, 1, 1)
	b.recv(1, 1).spawn(1, 2, 0, 1)
	b.recv(0, 2)
	cert := mustOK(t, b.l)
	if cert.Rounds != 2 {
		t.Fatalf("ping-pong wants 2 rounds, got %d", cert.Rounds)
	}
	k1 := cert.Phase[MsgRef{Key: 1, Copy: -1}]
	k2 := cert.Phase[MsgRef{Key: 2, Copy: -1}]
	if !(k1 < k2) {
		t.Fatalf("response round %d not after request round %d", k2, k1)
	}
}

func TestCheckSelfSend(t *testing.T) {
	b := newLog(1)
	b.send(0, 1, 0).recv(0, 1)
	cert := mustOK(t, b.l)
	if cert.Rounds != 1 {
		t.Fatalf("self-send wants 1 round, got %d", cert.Rounds)
	}
}

func TestCheckBarrierSeparatesRounds(t *testing.T) {
	b := newLog(2)
	b.send(0, 1, 1).barrier(0, 7).send(0, 2, 1)
	b.recv(1, 1).barrier(1, 7).recv(1, 2)
	cert := mustOK(t, b.l)
	if cert.Rounds != 2 {
		t.Fatalf("barrier-split run wants 2 rounds, got %d", cert.Rounds)
	}
	if beta := cert.Barrier[7]; beta != cert.Phase[MsgRef{Key: 1, Copy: -1}] {
		t.Fatalf("barrier closes round %d, first message assigned %d",
			beta, cert.Phase[MsgRef{Key: 1, Copy: -1}])
	}
}

func TestCheckBroadcastCopies(t *testing.T) {
	b := newLog(3)
	b.bcast(0, 5)
	b.recv(1, 5)
	b.recv(2, 5)
	cert := mustOK(t, b.l)
	if _, ok := cert.Phase[MsgRef{Key: 5, Copy: 1}]; !ok {
		t.Fatalf("no round for broadcast copy at rank 1: %v", cert.Phase)
	}
	if _, ok := cert.Phase[MsgRef{Key: 5, Copy: 2}]; !ok {
		t.Fatalf("no round for broadcast copy at rank 2: %v", cert.Phase)
	}
}

func TestCheckCommutableReceives(t *testing.T) {
	// C receives from A and B in the opposite order of their (causally
	// unrelated) sends: fine, receives of a round are unordered.
	b := newLog(3)
	b.send(0, 1, 2)
	b.send(1, 2, 2)
	b.recv(2, 2).recv(2, 1)
	mustOK(t, b.l)
}

// TestCheckStragglerDelivery pins a legitimate lazy-mailbox shape: rank
// 1 is still inside its quiescence barrier when rank 0 — which passed
// first — already sends phase-1 traffic, so rank 1 delivers the
// next-phase straggler before recording its own barrier event. The
// bounded model must accept this (receives carry no edge into the
// rank's following barrier).
func TestCheckStragglerDelivery(t *testing.T) {
	b := newLog(2)
	b.send(0, 1, 1).barrier(0, 7).send(0, 2, 1)
	b.recv(1, 1).recv(1, 2).barrier(1, 7)
	cert := mustOK(t, b.l)
	if p1, p2 := cert.Phase[MsgRef{Key: 1, Copy: -1}], cert.Phase[MsgRef{Key: 2, Copy: -1}]; !(p1 < p2) {
		t.Fatalf("straggler round %d not after pre-barrier round %d", p2, p1)
	}
}

// TestCheckStragglerSpawn is the harder variant: the straggler's
// handler spawns a child, so a send event appears on rank 1 before rank
// 1's own barrier event even though the whole chain is rooted in the
// next phase. The phase window must follow the root application send
// (rank 0's post-barrier send has no following barrier, so the window
// is open), not the spawning rank's local barrier position.
func TestCheckStragglerSpawn(t *testing.T) {
	b := newLog(2)
	b.send(0, 1, 1).barrier(0, 7).send(0, 2, 1).recv(0, 3)
	b.recv(1, 1).recv(1, 2).spawn(1, 3, 0, 2).barrier(1, 7)
	cert := mustOK(t, b.l)
	bar := cert.Barrier[7]
	if p3 := cert.Phase[MsgRef{Key: 3, Copy: -1}]; p3 <= bar {
		t.Fatalf("next-phase spawn assigned round %d at or before barrier round %d", p3, bar)
	}
}

// TestCheckKnownFalseNegative pins the deliberate weakening documented
// in DESIGN.md §12: a cross-channel causal inversion with no send after
// the late receive is accepted, because receive→receive order carries
// no round information in the bounded model.
func TestCheckKnownFalseNegative(t *testing.T) {
	b := newLog(3)
	b.send(0, 1, 2).send(0, 2, 1)  // A: k1 -> C, k2 -> B
	b.recv(1, 2).spawn(1, 3, 2, 2) // B's handler reacts to k2 with k3 -> C
	b.recv(2, 3).recv(2, 1)        // C sees the reaction before k1
	mustOK(t, b.l)
}

func TestCheckFIFOViolation(t *testing.T) {
	b := newLog(2)
	b.send(0, 1, 1).send(0, 2, 1)
	b.recv(1, 2).recv(1, 1)
	v := Check(b.l)
	if v.OK {
		t.Fatalf("same-channel swap accepted")
	}
	if v.Violation.Kind != "fifo" {
		t.Fatalf("want fifo violation, got %v", v.Violation)
	}
	want := [2]MsgRef{{Key: 1, Copy: -1}, {Key: 2, Copy: -1}}
	if v.Violation.Pair != want {
		t.Fatalf("want pair %v, got %v", want, v.Violation.Pair)
	}
	if !strings.Contains(v.Violation.String(), "fifo") {
		t.Fatalf("violation string %q does not name the kind", v.Violation.String())
	}
}

func TestCheckMutualCycle(t *testing.T) {
	// Each rank's handler for the other's message spawns its own:
	// φ(k1) < φ(k2) and φ(k2) < φ(k1) — the minimal strict causal
	// cycle (the crossing pair of the synchronizability literature).
	b := newLog(2)
	b.recv(0, 2).spawn(0, 1, 1, 2)
	b.recv(1, 1).spawn(1, 2, 0, 1)
	v := Check(b.l)
	if v.OK {
		t.Fatalf("mutual recv-before-send accepted")
	}
	if v.Violation.Kind != "cycle" {
		t.Fatalf("want cycle violation, got %v", v.Violation)
	}
	if len(v.Violation.Cycle) != 2 {
		t.Fatalf("want the minimal 2-message cycle, got %v", v.Violation.Cycle)
	}
}

func TestCheckBarrierCrossing(t *testing.T) {
	// A message sent before a barrier but delivered after it on the
	// destination crosses the phase boundary.
	b := newLog(2)
	b.send(0, 1, 1).barrier(0, 3)
	b.barrier(1, 3).recv(1, 1)
	v := Check(b.l)
	if v.OK {
		t.Fatalf("barrier-crossing delivery accepted")
	}
	if v.Violation.Kind != "cycle" {
		t.Fatalf("want cycle violation, got %v", v.Violation)
	}
	if !strings.Contains(v.Violation.Detail, "barrier") {
		t.Fatalf("detail %q does not mention the barrier", v.Violation.Detail)
	}
}

func TestCheckOrphanAndUndelivered(t *testing.T) {
	b := newLog(2)
	b.send(0, 1, 1) // never delivered
	b.recv(1, 9)    // never sent
	v := Check(b.l)
	if !v.OK {
		t.Fatalf("orphans/undelivered must not fail synchronizability: %v", v.Violation)
	}
	if len(v.Faults) != 2 {
		t.Fatalf("want 1 undelivered and 1 orphan fault, got %q", v.Faults)
	}
}

// TestJudgeDeliveryFaults: each breach of the delivery contract, on a
// hand-built log, is reported as a fault naming the message, while the
// synchronizability verdict stays independent of it.
func TestJudgeDeliveryFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(b *logBuilder)
		want  string
	}{
		{"undelivered unicast", func(b *logBuilder) {
			b.send(0, 1, 1)
		}, "unicast 0#1 to rank 1 never received"},
		{"duplicate receive", func(b *logBuilder) {
			b.send(0, 1, 1)
			b.recv(1, 1).recv(1, 1)
		}, "unicast 0#1 received again at rank 1"},
		{"unicast at the wrong rank", func(b *logBuilder) {
			b.send(0, 1, 1)
			b.recv(2, 1)
		}, "unicast 0#1 addressed to rank 1 received at rank 2"},
		{"broadcast at its origin", func(b *logBuilder) {
			b.bcast(0, 5)
			b.recv(0, 5).recv(1, 5).recv(2, 5)
		}, "broadcast 0#5 received at its origin rank 0"},
		{"missing broadcast copy", func(b *logBuilder) {
			b.bcast(0, 5)
			b.recv(1, 5)
		}, "broadcast 0#5 never received at rank 2"},
		{"duplicate broadcast copy", func(b *logBuilder) {
			b.bcast(0, 5)
			b.recv(1, 5).recv(1, 5).recv(2, 5)
		}, "broadcast 0#5 received twice at rank 1"},
		{"receive with no send", func(b *logBuilder) {
			b.recv(1, Key64(2, 7))
		}, "message 2#7 received at rank 1 was never sent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newLog(3)
			tc.build(b)
			faults, _, _ := Judge(b.l)
			found := false
			for _, f := range faults {
				found = found || f == tc.want
			}
			if !found {
				t.Fatalf("faults %q lack %q", faults, tc.want)
			}
		})
	}

	b := newLog(3)
	b.send(0, 1, 1).bcast(0, 5)
	b.recv(1, 1).recv(1, 5)
	b.recv(2, 5)
	if faults, cert, err := Judge(b.l); len(faults) != 0 || err != nil || cert == nil {
		t.Fatalf("clean log judged faults %q, err %v, certificate %v", faults, err, cert != nil)
	}
}

func TestValidateRejectsCorruptCertificate(t *testing.T) {
	b := newLog(2)
	b.send(0, 1, 1)
	b.recv(1, 1).spawn(1, 2, 0, 1)
	b.recv(0, 2)
	cert := mustOK(t, b.l)

	flat := &Certificate{Rounds: cert.Rounds, Phase: map[MsgRef]int{}, Barrier: map[uint64]int{}}
	for k, p := range cert.Phase {
		flat.Phase[k] = p
	}
	// Collapse the response into the request's round: violates the
	// strict parent→spawn rule on rank 1.
	flat.Phase[MsgRef{Key: 2, Copy: -1}] = flat.Phase[MsgRef{Key: 1, Copy: -1}]
	if err := ValidateCertificate(b.l, flat); err == nil {
		t.Fatalf("validator accepted a same-round handler response")
	}

	missing := &Certificate{Rounds: cert.Rounds, Phase: map[MsgRef]int{}, Barrier: map[uint64]int{}}
	for k, p := range cert.Phase {
		missing.Phase[k] = p
	}
	delete(missing.Phase, MsgRef{Key: 2, Copy: -1})
	if err := ValidateCertificate(b.l, missing); err == nil {
		t.Fatalf("validator accepted a certificate missing a message")
	}

	if err := ValidateCertificate(b.l, nil); err == nil {
		t.Fatalf("validator accepted a nil certificate")
	}

	narrow := &Certificate{Rounds: 0, Phase: cert.Phase, Barrier: cert.Barrier}
	if err := ValidateCertificate(b.l, narrow); err == nil {
		t.Fatalf("validator accepted rounds outside the declared range")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(2)
	r.Send(0, Key64(0, 0), 1)
	r.Recv(1, Key64(0, 0))
	r.Spawn(1, Key64(1, 5), 0, Key64(0, 0))
	r.Recv(0, Key64(1, 5))
	r.Barrier(0, 1)
	r.Barrier(1, 1)
	l := r.Log()
	if l.World != 2 || len(l.Events[0]) != 3 || len(l.Events[1]) != 3 {
		t.Fatalf("log shape mismatch: %+v", l)
	}
	cert := mustOK(t, l)
	if req, resp := cert.Phase[MsgRef{Key: Key64(0, 0), Copy: -1}], cert.Phase[MsgRef{Key: Key64(1, 5), Copy: -1}]; !(req < resp) {
		t.Fatalf("recorded spawn round %d not after its parent's round %d", resp, req)
	}
}

func TestKey64(t *testing.T) {
	k := Key64(machine.Rank(3), 41)
	if k>>32 != 3 || k&0xffffffff != 41 {
		t.Fatalf("Key64 packed %x", k)
	}
	ref := MsgRef{Key: k, Copy: -1}
	if ref.String() != "3#41" {
		t.Fatalf("MsgRef string %q", ref.String())
	}
	copyRef := MsgRef{Key: k, Copy: 7}
	if copyRef.String() != "3#41@7" {
		t.Fatalf("copy MsgRef string %q", copyRef.String())
	}
}
