package container

import (
	"ygm/internal/codec"
	"ygm/internal/machine"
)

// Shared fire-and-forget encoders. Each encodes one operation frame into
// a nested scratch slot and queues it on the mailbox; the mailbox copies
// the record into its coalescing buffer before returning (self-owned keys
// deliver synchronously inside the Send), so the slot is immediately
// reusable. These are the steady-state zero-allocation hot path.
//
// A mailbox record is one or more frames back to back. Only Counter
// builds a multi-frame record: a visit or fetch that leads with the
// combiner's pending contribution for its key (putAdd, then the
// ship*/asyncFetch call on the same writer).

// putAdd appends one opAdd frame to w.
func putAdd(w *codec.Writer, cid uint64, key []byte, delta uint64) {
	w.Uvarint(cid)
	w.Byte(opAdd)
	w.Uvarint(delta)
	w.Bytes0(key)
}

// ship queues the record built in w — the engine's innermost scratch
// writer — for owner and releases the writer.
func (e *Engine) ship(owner machine.Rank, w *codec.Writer) {
	e.mb.Send(owner, w.Bytes())
	e.popWriter()
}

func (e *Engine) asyncInsert(owner machine.Rank, cid uint64, key, val []byte) {
	w := e.pushWriter()
	w.Uvarint(cid)
	w.Byte(opInsert)
	w.Bytes0(key)
	w.Bytes0(val)
	e.ship(owner, w)
}

func (e *Engine) asyncErase(owner machine.Rank, cid uint64, key []byte) {
	w := e.pushWriter()
	w.Uvarint(cid)
	w.Byte(opErase)
	w.Bytes0(key)
	e.ship(owner, w)
}

func (e *Engine) asyncAdd(owner machine.Rank, cid uint64, key []byte, delta uint64) {
	w := e.pushWriter()
	putAdd(w, cid, key, delta)
	e.ship(owner, w)
}

func (e *Engine) asyncVisit(owner machine.Rank, cid, vid uint64, key, arg []byte) {
	e.shipVisit(e.pushWriter(), owner, cid, vid, key, arg)
}

// shipVisit appends an opVisit frame to w, which the caller pushed and
// may have led with an opAdd frame for the same key, and ships the
// record.
func (e *Engine) shipVisit(w *codec.Writer, owner machine.Rank, cid, vid uint64, key, arg []byte) {
	w.Uvarint(cid)
	w.Byte(opVisit)
	w.Uvarint(vid)
	w.Bytes0(key)
	w.Bytes0(arg)
	e.ship(owner, w)
}
