// Package container provides YGM's headline user-facing feature: owner-
// computes partitioned storage containers (Map and Counter) layered
// purely on the asynchronous mailbox. Insertions, erasures, and
// visitor RPCs may be issued from any rank at any time; each key lives
// on exactly one owning rank (chosen by a pluggable Partitioner) and
// every mutation is shipped there as a fire-and-forget mailbox message.
// Quiescence — "all issued operations have been applied" — is the
// mailbox's own termination-detected WaitEmpty and nothing more.
//
// The package is a thin veneer: it adds no communication path of its
// own. Every container interaction, fetch replies included, is a record
// of ordinary coalesced mailbox traffic (the zero-alloc exchange hot
// path), so the synchronizability oracle and the delivery oracle judge
// container workloads exactly as they judge raw mailbox workloads. What
// it does add is a decision about what needs the path at all: a Counter
// applies self-owned adds in place and merges remote ones per key on the
// sender (see combiner), so the mailbox carries a record per distinct
// key per flush instead of one per AsyncAdd.
package container

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/machine"
	"ygm/internal/obs"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// Operation opcodes, shared by every container type. One frame is
// [cid uvarint][op byte][op-specific fields]; all variable-length
// fields are length-prefixed (codec Bytes0/String framing). One engine
// message (mailbox record) is one or more frames back to back.
const (
	opInsert byte = iota + 1 // key, value
	opErase                  // key
	opAdd                    // delta, key (counter accumulation)
	opVisit                  // visitor id, key, arg
	opFetch                  // visitor id, fetch id, caller, key, arg
	opReply                  // fetch id, reply (cid of the fetching container)
)

// instance is the owner-side face of one container: the engine decodes
// the common frame and hands the fields to the instance registered under
// the message's container id.
type instance interface {
	applyInsert(key, val []byte)
	applyErase(key []byte)
	applyAdd(key []byte, delta uint64)
	runVisit(vid uint64, key, arg []byte)
	runFetch(vid uint64, key, arg []byte, reply *codec.Writer)
	localLen() uint64
}

// Engine multiplexes any number of containers over one mailbox. All
// ranks must construct their engines, containers, and visitor
// registrations collectively in the same order: container ids and
// visitor ids are assigned sequentially, and matching ids on every rank
// is what makes a shipped operation run the right code on the owner.
//
// An Engine (like the mailbox under it) is confined to its rank's
// goroutine.
type Engine struct {
	mb   ygm.Box
	p    *transport.Proc
	comm *collective.Comm

	conts []instance

	// combining lists the Counters whose sender-side combiner has been
	// allocated (on their first remote AsyncAdd); Barrier flushes them.
	// combSlots is the size a Counter's table may grow to —
	// combinerSlots, except where a test shrinks it to force collisions.
	combining []*Counter
	combSlots int

	// Where each AsyncAdd went (see Counter.AsyncAdd), resolved once
	// from the rank's metric registry.
	cAddLocal    *obs.Counter
	cAddCombined *obs.Counter
	cAddShipped  *obs.Counter
	cAddBypassed *obs.Counter

	// writers and readers are depth-indexed scratch stacks. Handlers may
	// issue container operations of their own (chained visits), and a
	// self-owned operation delivers synchronously inside the issuing
	// call, so encode/decode scratch must nest: each logical operation
	// pushes a slot, and anything it triggers uses deeper slots. Slots
	// are allocated once and reused, keeping the steady state clean.
	// Only handle pushes a reader, so rDepth > 0 exactly while a handler
	// or fetch callback runs.
	writers []*codec.Writer
	wDepth  int
	readers []*codec.Reader
	rDepth  int

	// fetches holds the callbacks of this rank's fetches whose reply has
	// not arrived, keyed by a locally unique fetch id.
	fetches   map[uint64]func(reply []byte)
	nextFetch uint64
}

// NewEngine builds the container engine for this rank. Collective: every
// rank must call it at the same point in its construction sequence (the
// world communicator underneath draws a CommNonce). Options are passed
// through to ygm.New, so callers pick the exchange variant, routing
// scheme, and capacity exactly as for a raw mailbox.
func NewEngine(p *transport.Proc, opts ...ygm.Option) *Engine {
	e := &Engine{
		p:         p,
		comm:      collective.World(p),
		fetches:   make(map[uint64]func(reply []byte)),
		combSlots: combinerSlots,
	}
	m := p.Metrics()
	e.cAddLocal = m.Counter("container.add.local")
	e.cAddCombined = m.Counter("container.add.combined")
	e.cAddShipped = m.Counter("container.add.shipped")
	e.cAddBypassed = m.Counter("container.add.bypassed")
	e.mb = ygm.New(p, e.handle, opts...)
	return e
}

// Mailbox exposes the engine's mailbox (stats, PendingSends).
func (e *Engine) Mailbox() ygm.Box { return e.mb }

// Proc exposes the transport endpoint the engine runs on.
func (e *Engine) Proc() *transport.Proc { return e.p }

// register assigns the next container id. Collective order matters.
func (e *Engine) register(c instance) uint64 {
	e.conts = append(e.conts, c)
	return uint64(len(e.conts) - 1)
}

// pushWriter returns a reset scratch writer for one encode, nested under
// any encodes already in flight on this rank.
func (e *Engine) pushWriter() *codec.Writer {
	if e.wDepth == len(e.writers) {
		e.writers = append(e.writers, codec.NewWriter(64))
	}
	w := e.writers[e.wDepth]
	e.wDepth++
	w.Reset()
	return w
}

func (e *Engine) popWriter() { e.wDepth-- }

// pushReader returns a reader over payload, nested like pushWriter.
func (e *Engine) pushReader(payload []byte) *codec.Reader {
	if e.rDepth == len(e.readers) {
		e.readers = append(e.readers, codec.NewReader(nil))
	}
	r := e.readers[e.rDepth]
	e.rDepth++
	r.Reset(payload)
	return r
}

func (e *Engine) popReader() {
	e.rDepth--
	// Drop the payload alias: the slot must not outlive the handler's
	// borrow of the (possibly pooled) delivery buffer.
	e.readers[e.rDepth].Reset(nil)
}

// handle is the engine's mailbox handler: decode each frame of the
// record in turn and run its operation on the owning container, or, for
// a fetch reply, the callback waiting for it. A frame's fields are
// decoded (as views into the payload, which stays valid for the whole
// handler) before its visitor or callback runs; the reader slot stays
// pushed across the call, so the chained operations it issues — and any
// handler they deliver to synchronously — decode in deeper slots and the
// loop resumes where it left off. The record ends exactly where its last
// frame does: trailing or truncated bytes fail a field decode and panic
// as a corrupt frame.
func (e *Engine) handle(s ygm.Sender, payload []byte) {
	r := e.pushReader(payload)
	for {
		cid := e.mustUvarint(r)
		op := e.mustByte(r)
		if cid >= uint64(len(e.conts)) {
			panic(fmt.Sprintf("container: rank %d: message for unregistered container %d", e.p.Rank(), cid))
		}
		c := e.conts[cid]
		switch op {
		case opInsert:
			key := e.mustBytes(r)
			val := e.mustBytes(r)
			c.applyInsert(key, val)
		case opErase:
			c.applyErase(e.mustBytes(r))
		case opAdd:
			delta := e.mustUvarint(r)
			c.applyAdd(e.mustBytes(r), delta)
		case opVisit:
			vid := e.mustUvarint(r)
			key := e.mustBytes(r)
			arg := e.mustBytes(r)
			c.runVisit(vid, key, arg)
		case opFetch:
			vid := e.mustUvarint(r)
			fid := e.mustUvarint(r)
			caller := machine.Rank(e.mustUvarint(r))
			key := e.mustBytes(r)
			arg := e.mustBytes(r)
			reply := e.pushWriter()
			c.runFetch(vid, key, arg, reply)
			w := e.pushWriter()
			w.Uvarint(cid)
			w.Byte(opReply)
			w.Uvarint(fid)
			w.Bytes0(reply.Bytes())
			e.ship(caller, w)
			e.popWriter()
		case opReply:
			fid := e.mustUvarint(r)
			reply := e.mustBytes(r)
			cb, ok := e.fetches[fid]
			if !ok {
				panic(fmt.Sprintf("container: rank %d: reply for unknown fetch %d", e.p.Rank(), fid))
			}
			delete(e.fetches, fid)
			cb(reply)
		default:
			panic(fmt.Sprintf("container: rank %d: unknown opcode %d", e.p.Rank(), op))
		}
		if r.Remaining() == 0 {
			break
		}
	}
	e.popReader()
}

// Barrier blocks until every container operation issued by any rank —
// including contributions still held in a Counter's combiner, fetches,
// their replies and callbacks, and anything those issue — has been
// applied. Collective over all ranks. This is the visibility rule for
// Counter.AsyncAdd: a contribution has reached its owner by the time the
// next Barrier returns (Size, TopK and ForAll start with one).
//
// It ships what application code left in the combiners, then runs one
// WaitEmpty. That covers the rest: fetch replies are mailbox records,
// and handlers and callbacks never write a combiner (their adds ship
// directly), so global mailbox quiescence is container quiescence. It
// waits for other ranks; handlers and fetch callbacks run inside the
// mailbox's handler, so called from one, its WaitEmpty panics instead of
// deadlocking the world.
func (e *Engine) Barrier() {
	e.flushCombiners()
	e.mb.WaitEmpty()
	if n := e.pendingCombined(); n != 0 || len(e.fetches) != 0 {
		panic(fmt.Sprintf("container: rank %d: %d combined contributions and %d fetches pending at quiescence", e.p.Rank(), n, len(e.fetches)))
	}
}

// flushCombiners ships every pending combined contribution on this rank.
func (e *Engine) flushCombiners() {
	for _, c := range e.combining {
		c.flushPending()
	}
}

// pendingCombined counts the records flushCombiners would ship now.
func (e *Engine) pendingCombined() uint64 {
	var n uint64
	for _, c := range e.combining {
		n += uint64(c.comb.live)
	}
	return n
}

// allreduceSum is the post-Barrier reduction containers use for Size.
func (e *Engine) allreduceSum(v uint64) uint64 {
	vals := [1]uint64{v}
	return e.comm.AllreduceU64(vals[:], collective.SumU64)[0]
}

// asyncFetch registers cb and ships an opFetch to owner. Fetches are
// excluded from the zero-alloc contract (the callback registration
// allocates); the fire-and-forget operations are the hot path.
func (e *Engine) asyncFetch(owner machine.Rank, cid, vid uint64, key, arg []byte, cb func(reply []byte)) {
	e.shipFetch(e.pushWriter(), owner, cid, vid, key, arg, cb)
}

// shipFetch is asyncFetch onto a writer the caller pushed and may have
// led with an opAdd frame for the same key (shipVisit's contract).
func (e *Engine) shipFetch(w *codec.Writer, owner machine.Rank, cid, vid uint64, key, arg []byte, cb func(reply []byte)) {
	fid := e.nextFetch
	e.nextFetch++
	e.fetches[fid] = cb
	w.Uvarint(cid)
	w.Byte(opFetch)
	w.Uvarint(vid)
	w.Uvarint(fid)
	w.Uvarint(uint64(e.p.Rank()))
	w.Bytes0(key)
	w.Bytes0(arg)
	e.ship(owner, w)
}

// Decode helpers: corrupt container frames are programming errors (the
// encode side is this same package), so they panic like the mailbox's
// own record parser. The error formatting sits behind the check so the
// happy path stays allocation-free.

func (e *Engine) mustUvarint(r *codec.Reader) uint64 {
	v, err := r.Uvarint()
	if err != nil {
		panic(fmt.Sprintf("container: rank %d: corrupt frame: %v", e.p.Rank(), err))
	}
	return v
}

func (e *Engine) mustByte(r *codec.Reader) byte {
	b, err := r.Byte()
	if err != nil {
		panic(fmt.Sprintf("container: rank %d: corrupt frame: %v", e.p.Rank(), err))
	}
	return b
}

func (e *Engine) mustBytes(r *codec.Reader) []byte {
	b, err := r.Bytes0()
	if err != nil {
		panic(fmt.Sprintf("container: rank %d: corrupt frame: %v", e.p.Rank(), err))
	}
	return b
}
