package transport

import (
	"time"

	"ygm/internal/machine"
)

// Wire is the pluggable bottom edge of the runtime: everything below the
// per-rank inboxes — how a stamped packet physically travels from the
// sending rank to the destination inbox. The zero-alloc
// AcquireBuf/SendPooled/Recycle discipline, the inbox's multi-producer
// stack, the per-tag arrival heaps, and the delivery semantics the
// oracles certify all sit *above* this seam and are shared by every
// backend.
//
// Contract:
//
//   - Inject is called on the sending rank's goroutine with a packet the
//     sender has fully stamped (Src, Tag, Arrive, Payload).
//     Ownership of the packet transfers to the wire. For a destination
//     hosted in this process the wire must Push the packet into
//     w.Inbox(dst) from exactly one goroutine per (dst, src) channel:
//     the inbox takes pushes from any number of goroutines, but a
//     channel's FIFO order is the order of its pushes. A wire that
//     serializes the packet onto an external transport must return it to
//     the sending rank's cache afterwards (p.cache.put, on the goroutine
//     Inject runs on) so the sender-side recycle balance holds.
//     Inject may return before the bytes have left the process: TCPWire
//     copies the frame into a per-peer send queue that a writer goroutine
//     drains, and blocks only while that queue holds a full window
//     (tcpSendWindow). Per-(src, dst) order is the order of Inject calls.
//   - Delivery needs no help from the receiving rank: a rank that
//     parks in a blocking receive calls nothing on the wire first. The
//     in-tree wires push from the sender's goroutine or from dedicated
//     reader and writer goroutines (DESIGN.md §13), and a new backend
//     must make progress the same way.
//   - Flush blocks until every frame injected in this process has been
//     handed to the underlying transport (the OS for TCP: every send
//     queue empty and its last batch written). The runtime calls it as
//     each rank's body returns; in-process wires are synchronous and
//     implement it as a no-op.
//   - RealTime distinguishes virtual-time wires (arrival stamps are
//     netsim model arithmetic, ranks carry a netsim.Clock) from
//     real-time wires (arrival stamps are host seconds since the world
//     epoch and every model charge is skipped — the costs are real
//     instructions and real wire latency). See Report.Wall.
//   - LocalRanks returns the ranks this process hosts; nil means all of
//     them. Run spawns one goroutine per local rank only. A distributed
//     wire (fewer local ranks than the world) must surface remote-peer
//     failure by calling w.WireFail, which poisons the local inboxes so
//     blocked ranks unwind through the same deadlockExit path the
//     watchdog uses.
//   - Start attaches the wire to one World before any rank runs (a
//     distributed wire performs its rendezvous/handshake here); Finish
//     tears it down after every local rank has returned and is where a
//     distributed wire drains peers' goodbyes.
//
// A wire that counts its own work may also implement
// Metrics() obs.Snapshot; Run stores the snapshot, taken after Finish, in
// Report.Wire.
//
// A Wire value is single-use: one Start/Finish cycle per Run.
type Wire interface {
	Name() string
	RealTime() bool
	LocalRanks(topo machine.Topology) []machine.Rank
	Start(w *World) error
	Inject(p *Proc, dst machine.Rank, pkt *Packet)
	Flush(p *Proc)
	Finish() error
}

// SimWire is the virtual-time simulator backend — the runtime's original
// bottom edge, extracted behind the Wire seam with zero behavior change.
// Every rank runs as a goroutine in this process, multiplexed over the
// M:N scheduler's GOMAXPROCS worker tokens; arrival stamps come from the
// netsim cost model, and Inject is a direct Push into the destination's
// inbox. A nil Config.Wire selects SimWire.
type SimWire struct{}

func (SimWire) Name() string       { return "sim" }
func (SimWire) RealTime() bool     { return false }
func (SimWire) Start(*World) error { return nil }

// LocalRanks: every rank lives in this process.
func (SimWire) LocalRanks(machine.Topology) []machine.Rank { return nil }

func (SimWire) Inject(p *Proc, dst machine.Rank, pkt *Packet) {
	p.world.inboxes[dst].Push(pkt)
}

func (SimWire) Flush(*Proc)   {}
func (SimWire) Finish() error { return nil }

// LocalWire is the in-process real-time backend: the same
// goroutine-per-rank world and direct inbox delivery as SimWire, but
// with every rank runnable at once (no scheduler tokens) and no netsim
// clock — arrival stamps are host time, model charges are
// skipped, and the Report measures actual wall seconds on real
// hardware. It exists so the benches can measure the runtime itself
// (injection rate, handler dispatch, inbox handoff) rather than the cost
// model, and as the single-process anchor of the backend-conformance
// suite.
type LocalWire struct{}

func (LocalWire) Name() string       { return "local" }
func (LocalWire) RealTime() bool     { return true }
func (LocalWire) Start(*World) error { return nil }

func (LocalWire) LocalRanks(machine.Topology) []machine.Rank { return nil }

func (LocalWire) Inject(p *Proc, dst machine.Rank, pkt *Packet) {
	p.world.inboxes[dst].Push(pkt)
}

func (LocalWire) Flush(*Proc)   {}
func (LocalWire) Finish() error { return nil }

// hostNow reads the host clock to anchor an epoch or a handshake
// deadline — once per run, never per packet. Like the deadlock watchdog,
// real-time backends run on host time by design: the virtual-clock rule
// exists to keep *simulated* experiments independent of host scheduling,
// and a real-time wire's entire point is to measure that scheduling.
func hostNow() time.Time {
	return time.Now()
}

// hostSince returns the host seconds elapsed since epoch (a hostNow
// value). Every per-event timestamp of the real-time wires is taken
// here: against an epoch that carries a monotonic reading, time.Since
// reads the monotonic clock alone — about 0.6 of the cost of time.Now,
// which reads the wall clock as well — and cannot step backwards. The
// budget is one reading per send, two per park and one per TCP buffer
// fill; a ygmcheck build counts the readings (hostClockReads).
func hostSince(epoch time.Time) float64 {
	countHostRead()
	return time.Since(epoch).Seconds()
}

// WireFail records a wire-level fault (a peer connection reset, a failed
// remote write) and unwinds the local ranks: the world is marked failed
// — so AbortIfPeerFailed loops exit — and every local inbox is poisoned
// so blocked receivers return through the orderly deadlockExit path.
// Run reports the first recorded fault when no rank error explains the
// unwind. Safe to call from any wire goroutine, more than once.
func (w *World) WireFail(err error) {
	w.wireMu.Lock()
	if w.wireErr == nil {
		w.wireErr = err
	}
	w.wireMu.Unlock()
	w.failed.Store(true)
	for _, ib := range w.inboxes {
		ib.poison()
	}
}

// Inbox exposes rank r's inbox for wire implementations that deliver
// from their own reader goroutines (each must respect the one-producer
// per (dst, src) channel rule Push documents).
func (w *World) Inbox(r machine.Rank) *Inbox { return w.inboxes[r] }
