// Package synch decides whether an observed mailbox execution is
// reorder-equivalent to a round-based synchronous execution — the
// machine-checked form of the paper's informal "pseudo-asynchronous ≈
// async speed with sync semantics" claim.
//
// The model is the message sequence chart (MSC) of one run: every
// logical application message with its send event (on the origin rank)
// and receive event (the handler invocation on the destination rank),
// the causal spawn edges between a delivered message and the sends its
// handler issued, and the global quiescence barriers (WaitEmpty
// generations) that punctuate the run. Check decides whether that MSC
// admits a partition into exchange phases — rounds in which every rank
// first performs its sends and then its receives, with every message
// sent and received in the same round and all rounds separated by the
// observed barriers — following the automata-based synchronizability
// criteria of Delpy/Muscholl/Sutre 2024 and Di Giusto/Laversa/Peters
// 2024 (see PAPERS.md). On success it returns a certificate (the
// synchronous round schedule, checkable by the independent validator in
// validate.go); on failure, a minimal violating cycle naming the
// crossing messages (or the same-channel FIFO inversion).
//
// The checker is deliberately bounded (see DESIGN.md §12 for the
// soundness sketch and the known false negatives). The happens-before
// relation it builds contains only orderings the mailbox contract
// actually promises: per-rank program order among application-level
// sends, causal order from a delivery to the sends its handler issued,
// per-channel FIFO, and quiescence barriers. The raw per-rank
// interleaving of deliveries with unrelated sends is treated as
// commutable scheduler accident — a lazy mailbox legitimately runs
// handlers in the middle of the application's send loop (capacity
// flushes and opportunistic polls), and a rank still draining its
// barrier may legitimately deliver next-phase stragglers from peers
// that passed the barrier first.
//
// The same log decides delivery: Judge returns, beside the
// synchronizability verdict, every breach of exactly-once delivery the
// log shows (Verdict.Faults), so one record judges a run.
package synch

import (
	"fmt"

	"ygm/internal/machine"
)

// Kind classifies one recorded event.
type Kind uint8

const (
	// KindSend is a unicast application send; Key is the message key and
	// Dst the destination rank.
	KindSend Kind = iota
	// KindBcast is a broadcast send; Key is the message key shared by
	// every delivered copy.
	KindBcast
	// KindRecv is a handler invocation; Key is the delivered message's
	// key (broadcast copies are told apart by the receiving rank).
	KindRecv
	// KindBarrier is a quiescence-barrier return (WaitEmpty or a
	// TestEmpty that reported done); Key is the global barrier id.
	KindBarrier
)

// Event is one entry of a rank's totally-ordered event log.
type Event struct {
	Kind Kind
	// Key identifies the message (send/recv) or the barrier (barrier
	// events of all ranks with equal Key are the same global barrier).
	Key uint64
	// Dst is the unicast destination rank; -1 for broadcasts, receives,
	// and barriers.
	Dst int32
	// Spawned marks a send issued from inside a handler, causally
	// reacting to the delivery named by Parent. Application-level sends
	// leave it false.
	Spawned bool
	// Parent is the key of the message whose handler issued this send;
	// meaningful only when Spawned is true. The parent instance is the
	// copy delivered at the sending rank (for broadcast parents), so no
	// copy index needs recording.
	Parent uint64
}

// Recorder accumulates the per-rank event logs of one run. Each rank's
// events are appended from that rank's goroutine only, so no locking is
// needed; Log must be called only after every rank goroutine has
// joined.
type Recorder struct {
	logs [][]Event
}

// NewRecorder returns a Recorder for a world of the given size.
func NewRecorder(world int) *Recorder {
	return &Recorder{logs: make([][]Event, world)}
}

// Send records an application-level unicast send on rank at.
func (r *Recorder) Send(at machine.Rank, key uint64, dst machine.Rank) {
	r.logs[at] = append(r.logs[at], Event{Kind: KindSend, Key: key, Dst: int32(dst)})
}

// Broadcast records an application-level broadcast send on rank at.
func (r *Recorder) Broadcast(at machine.Rank, key uint64) {
	r.logs[at] = append(r.logs[at], Event{Kind: KindBcast, Key: key, Dst: -1})
}

// Spawn records a unicast send issued from inside the handler of the
// message with key parent, on rank at. The causal parent→child edge is
// the strict (later-round) constraint of the synchronous model.
func (r *Recorder) Spawn(at machine.Rank, key uint64, dst machine.Rank, parent uint64) {
	r.logs[at] = append(r.logs[at], Event{Kind: KindSend, Key: key, Dst: int32(dst), Spawned: true, Parent: parent})
}

// Recv records a handler invocation on rank at.
func (r *Recorder) Recv(at machine.Rank, key uint64) {
	r.logs[at] = append(r.logs[at], Event{Kind: KindRecv, Key: key, Dst: -1})
}

// Barrier records rank at returning from global quiescence barrier id.
func (r *Recorder) Barrier(at machine.Rank, id uint64) {
	r.logs[at] = append(r.logs[at], Event{Kind: KindBarrier, Key: id, Dst: -1})
}

// Log freezes the recorded run into a checkable Log. Call only after
// the run has fully joined.
func (r *Recorder) Log() *Log {
	return &Log{World: len(r.logs), Events: r.logs}
}

// Log is one run's frozen event record: the only record Judge needs to
// decide both delivery and synchronizability.
type Log struct {
	World  int
	Events [][]Event
}

// MsgRef names one delivered (or undelivered) message instance in
// certificates and violations: the message key plus, for broadcast
// copies, the receiving rank (-1 for unicasts, whose key is unique).
type MsgRef struct {
	Key  uint64
	Copy int32
}

func (m MsgRef) String() string {
	if m.Copy >= 0 {
		return fmt.Sprintf("%d#%d@%d", m.Key>>32, m.Key&0xffffffff, m.Copy)
	}
	return fmt.Sprintf("%d#%d", m.Key>>32, m.Key&0xffffffff)
}

// Key64 packs an (origin, seq) message identity into the uint64 key
// space the recorder uses. Origins must fit in 32 bits and sequence
// numbers in 32 bits; the simulation harness stays far below both.
func Key64(origin machine.Rank, seq uint64) uint64 {
	return uint64(origin)<<32 | (seq & 0xffffffff)
}
