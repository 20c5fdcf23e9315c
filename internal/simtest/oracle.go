package simtest

import (
	"fmt"
	"sync/atomic"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/synch"
)

// msgKey identifies one logical application message: the rank that
// created it and that rank's private sequence number. Broadcast copies
// of one Broadcast share a key. The key names the message in the run's
// synch.Log, on which synch.Judge checks exactly-once delivery.
//
// Sequence numbers are structured so the whole command script is
// deterministic across mailbox variants (the cross-validation replay
// depends on it): top-level sends take even numbers (i<<1, allocated in
// program order), and a handler-spawned child derives its number from
// its parent as parent.seq<<8 | parent.origin<<1 | 1 — injective for
// per-rank send counts below 128, worlds of at most 128 ranks (so
// origin<<1 fits in the low 8 bits) and spawn depths (TTL) up to 2,
// which Case.validate and ContainerCase.validate enforce.
type msgKey struct {
	origin machine.Rank
	seq    uint64
}

func (k msgKey) String() string { return fmt.Sprintf("%d#%d", k.origin, k.seq) }

// key64 packs the key for the synchronizability recorder.
func (k msgKey) key64() uint64 { return synch.Key64(k.origin, k.seq) }

// spawnKey derives the deterministic key of a handler-spawned child
// message at rank me reacting to parent. The encoding keeps child keys
// disjoint from top-level (even) sequence numbers and injective across
// parents, so a lazy run and its synchronous replay allocate identical
// keys no matter the delivery interleaving.
func spawnKey(me machine.Rank, parent msgKey) msgKey {
	return msgKey{origin: me, seq: parent.seq<<8 | uint64(parent.origin)<<1 | 1}
}

// spawnHash expands a spawn key into the child's destination and filler
// choices (splitmix64 finalizer), replacing the shared per-rank rng
// whose draw order would depend on delivery order.
func spawnHash(k msgKey) uint64 {
	x := uint64(k.origin)*0x9e3779b97f4a7c15 + k.seq + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// payload wire format (encoded with internal/codec):
//
//	byte    kind (0 unicast, 1 broadcast)
//	uvarint origin, seq, phase
//	uvarint ttl, dst            (unicast only)
//	bytes0  filler              (content derived from origin/seq)
//
// The filler is a deterministic function of the key, so the oracle can
// verify integrity without storing payload copies.
const (
	payloadUnicast = 0
	payloadBcast   = 1
)

// msgMeta is one decoded payload header.
type msgMeta struct {
	key   msgKey
	bcast bool
	phase int
	ttl   int
	dst   machine.Rank
	fill  int
	// fillOK reports whether the filler bytes matched the deterministic
	// pattern for the key (payload integrity).
	fillOK bool
}

func fillByte(k msgKey, i int) byte {
	return byte(uint64(k.origin)*131 + k.seq*31 + uint64(i)*7 + 0x5a)
}

// encodePayload renders one logical message.
func encodePayload(k msgKey, bcast bool, phase, ttl int, dst machine.Rank, fill int) []byte {
	w := codec.NewWriter(16 + fill)
	if bcast {
		w.Byte(payloadBcast)
	} else {
		w.Byte(payloadUnicast)
	}
	w.Uvarint(uint64(k.origin))
	w.Uvarint(k.seq)
	w.Uvarint(uint64(phase))
	if !bcast {
		w.Uvarint(uint64(ttl))
		w.Uvarint(uint64(dst))
	}
	w.Uvarint(uint64(fill))
	for i := 0; i < fill; i++ {
		w.Byte(fillByte(k, i))
	}
	return w.Bytes()
}

// decodePayload parses a payload header and verifies the filler.
func decodePayload(b []byte) (msgMeta, error) {
	var m msgMeta
	r := codec.NewReader(b)
	kind, err := r.Byte()
	if err != nil {
		return m, err
	}
	switch kind {
	case payloadUnicast:
	case payloadBcast:
		m.bcast = true
	default:
		return m, fmt.Errorf("simtest: unknown payload kind %d", kind)
	}
	origin, err := r.Uvarint()
	if err != nil {
		return m, err
	}
	seq, err := r.Uvarint()
	if err != nil {
		return m, err
	}
	phase, err := r.Uvarint()
	if err != nil {
		return m, err
	}
	m.key = msgKey{origin: machine.Rank(origin), seq: seq}
	m.phase = int(phase)
	m.dst = machine.Nil
	if !m.bcast {
		ttl, err := r.Uvarint()
		if err != nil {
			return m, err
		}
		dst, err := r.Uvarint()
		if err != nil {
			return m, err
		}
		m.ttl = int(ttl)
		m.dst = machine.Rank(dst)
	}
	fill, err := r.Uvarint()
	if err != nil {
		return m, err
	}
	m.fill = int(fill)
	m.fillOK = true
	for i := 0; i < m.fill; i++ {
		c, err := r.Byte()
		if err != nil {
			return m, err
		}
		if c != fillByte(m.key, i) {
			m.fillOK = false
		}
	}
	if r.Remaining() != 0 {
		return m, fmt.Errorf("simtest: %d trailing payload bytes", r.Remaining())
	}
	return m, nil
}

// hopEdge is one record movement: message key's record left rank at
// for rank hop.
type hopEdge struct {
	key     uint64
	at, hop machine.Rank
}

// rankLog is the goroutine-confined state of one rank. Each rank's
// goroutine appends to its own log only; logs are merged after every
// goroutine has joined, so no locking is needed.
type rankLog struct {
	hops  []hopEdge
	viols []string // payload and barrier violations, recorded where seen
	seq   uint64   // next message sequence number for this origin
}

// oracle records every logical send, delivery and barrier of one run
// into a synch.Recorder, whose log judges exactly-once delivery (see
// judge), and checks what that log cannot show: the route and channel
// of every record movement (it implements ygm.Tap), payload integrity
// at delivery, and that no barrier released a rank while other ranks'
// traffic of its phase was still in flight.
type oracle struct {
	topo   machine.Topology
	scheme machine.Scheme
	rec    *synch.Recorder
	ranks  []rankLog

	// expected/delivered count final deliveries per phase: a unicast
	// send adds 1 to expected (self-sends included), a broadcast adds
	// WorldSize-1. The barrier invariant is delivered == expected for
	// every phase at or before the barrier's.
	expected  []atomic.Uint64
	delivered []atomic.Uint64

	// remote caches each rank's allowed remote partner set.
	remote []map[machine.Rank]bool
}

func newOracle(topo machine.Topology, scheme machine.Scheme, phases int) *oracle {
	o := &oracle{
		topo:      topo,
		scheme:    scheme,
		rec:       synch.NewRecorder(topo.WorldSize()),
		ranks:     make([]rankLog, topo.WorldSize()),
		expected:  make([]atomic.Uint64, phases),
		delivered: make([]atomic.Uint64, phases),
		remote:    make([]map[machine.Rank]bool, topo.WorldSize()),
	}
	for r := range o.remote {
		set := make(map[machine.Rank]bool)
		for _, p := range topo.RemotePartners(scheme, machine.Rank(r)) {
			set[p] = true
		}
		o.remote[r] = set
	}
	return o
}

func (o *oracle) violation(at machine.Rank, format string, args ...any) {
	o.ranks[at].viols = append(o.ranks[at].viols, fmt.Sprintf(format, args...))
}

// RecordQueued implements ygm.Tap: invoked on the queueing rank's
// goroutine for every record entering a coalescing buffer.
func (o *oracle) RecordQueued(at, hop, dst machine.Rank, bcast bool, payload []byte) {
	m, err := decodePayload(payload)
	if err != nil {
		o.violation(at, "rank %d queued a corrupt record: %s", at, err)
		return
	}
	o.ranks[at].hops = append(o.ranks[at].hops, hopEdge{key: m.key.key64(), at: at, hop: hop})
}

// recordSend logs one top-level send on the origin's goroutine, before
// the mailbox call, and bumps the phase expectation. Top-level keys take
// even sequence numbers; see msgKey.
func (o *oracle) recordSend(origin machine.Rank, bcast bool, dst machine.Rank, phase int) msgKey {
	rk := &o.ranks[origin]
	key := msgKey{origin: origin, seq: rk.seq << 1}
	rk.seq++
	if bcast {
		o.rec.Broadcast(origin, key.key64())
		o.expected[phase].Add(uint64(o.topo.WorldSize() - 1))
	} else {
		o.rec.Send(origin, key.key64(), dst)
		o.expected[phase].Add(1)
	}
	return key
}

// recordSpawn logs one handler-spawned unicast at rank at, reacting to
// parent (spawns derive their key from the parent, so no counter is
// consumed).
func (o *oracle) recordSpawn(at machine.Rank, key msgKey, dst machine.Rank, parent msgKey, phase int) {
	o.rec.Spawn(at, key.key64(), dst, parent.key64())
	o.expected[phase].Add(1)
}

// recordDelivery logs one handler invocation on the delivering rank's
// goroutine, checks the payload's integrity and returns the decoded
// header for spawn decisions.
func (o *oracle) recordDelivery(at machine.Rank, payload []byte) (msgMeta, bool) {
	m, err := decodePayload(payload)
	if err != nil {
		o.violation(at, "rank %d delivered a corrupt payload: %s", at, err)
		return m, false
	}
	if !m.fillOK {
		o.violation(at, "rank %d delivered message %s with mangled filler bytes", at, m.key)
	}
	o.rec.Recv(at, m.key.key64())
	if m.phase < len(o.delivered) {
		o.delivered[m.phase].Add(1)
	}
	return m, true
}

// barrier runs on a rank's goroutine the moment its phase-p barrier
// (WaitEmpty or TestEmpty-true) returns. It logs
// the barrier and checks that every phase at or before p is fully
// delivered, or the barrier released the rank while messages were in
// flight.
func (o *oracle) barrier(at machine.Rank, phase int) {
	o.rec.Barrier(at, uint64(phase))
	for q := 0; q <= phase && q < len(o.expected); q++ {
		exp, got := o.expected[q].Load(), o.delivered[q].Load()
		if exp != got {
			o.violation(at, "rank %d returned from its phase-%d barrier with phase %d incomplete: %d of %d deliveries",
				at, phase, q, got, exp)
		}
	}
}

// validate merges the per-rank logs after transport.Run has returned
// (all rank goroutines joined) and returns every violation the log
// cannot show: payload, barrier, route and channel.
func (o *oracle) validate(log *synch.Log) []string {
	var viols []string
	edges := make(map[uint64][]hopEdge)
	for r := range o.ranks {
		viols = append(viols, o.ranks[r].viols...)
		for _, e := range o.ranks[r].hops {
			edges[e.key] = append(edges[e.key], e)
		}
	}
	return o.validateRoutes(log, edges, viols)
}

// validateRoutes appends to viols each unicast message's hop chain that
// does not conform to machine.Path, and every remote record movement
// outside the scheme's channel set.
func (o *oracle) validateRoutes(log *synch.Log, edges map[uint64][]hopEdge, viols []string) []string {
	fail := func(format string, args ...any) { viols = append(viols, fmt.Sprintf(format, args...)) }
	for k, es := range edges {
		for _, e := range es {
			if e.at == e.hop {
				fail("message %v self-hop at rank %d", synch.MsgRef{Key: k, Copy: -1}, e.at)
			}
			if !o.topo.SameNode(e.at, e.hop) && !o.remote[e.at][e.hop] {
				fail("remote channel violation: %v", o.topo.CheckRemoteEdge(o.scheme, e.at, e.hop))
			}
		}
	}
	for r, evs := range log.Events {
		origin := machine.Rank(r)
		for _, ev := range evs {
			dst := machine.Rank(ev.Dst)
			if ev.Kind != synch.KindSend || dst == origin {
				// Broadcast fan-out trees and synchronous self-deliveries
				// have no single canonical chain; their hop edges are
				// still channel-checked above.
				continue
			}
			key := synch.MsgRef{Key: ev.Key, Copy: -1}
			next := make(map[machine.Rank]machine.Rank, len(edges[ev.Key]))
			for _, e := range edges[ev.Key] {
				if prev, dup := next[e.at]; dup {
					fail("message %v forwarded twice from rank %d (to %d and %d)", key, e.at, prev, e.hop)
				}
				next[e.at] = e.hop
			}
			var hops []machine.Rank
			cur := origin
			for len(hops) <= len(next) {
				h, ok := next[cur]
				if !ok {
					break
				}
				hops = append(hops, h)
				cur = h
			}
			if len(hops) != len(next) {
				fail("message %v hop edges do not form a chain from rank %d: %v", key, origin, edges[ev.Key])
				continue
			}
			if err := o.topo.CheckHops(o.scheme, origin, dst, hops); err != nil {
				fail("path conformance: message %v: %v", key, err)
			}
		}
	}
	return viols
}
