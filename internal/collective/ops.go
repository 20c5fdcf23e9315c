package collective

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/transport"
)

// Reduction operators for unsigned and floating-point vectors.
var (
	SumU64 = func(a, b uint64) uint64 { return a + b }
	MaxU64 = func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	}
	MinU64 = func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}
	SumF64 = func(a, b float64) float64 { return a + b }
	MaxF64 = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
)

// Barrier blocks until every member has entered it, using the
// dissemination algorithm (ceil(log2 P) rounds, each rank sending one
// message per round). This is the synchronization cost synchronous
// collectives impose: a rank leaves only after transitively hearing from
// everyone, so the exit time is governed by the slowest entrant.
func (c *Comm) Barrier() {
	sp := c.p.Span("coll.barrier")
	defer sp.End()
	op := c.nextOp()
	size := len(c.ranks)
	round := 0
	for k := 1; k < size; k <<= 1 {
		t := c.tag(op, round)
		c.send((c.me+k)%size, t, nil)
		c.recv(t)
		round++
	}
}

// Bcast distributes root's payload to every member along a binomial tree
// and returns it (the root gets its own payload back). Non-root callers
// pass nil.
func (c *Comm) Bcast(root int, payload []byte) []byte {
	op := c.nextOp()
	size := len(c.ranks)
	c.checkRoot(root)
	rel := (c.me - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			pkt := c.recv(c.tag(op, 0))
			payload = pkt.Payload
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < size {
			dst := (rel + mask + root) % size
			c.send(dst, c.tag(op, 0), payload)
		}
		mask >>= 1
	}
	return payload
}

// ReduceU64 combines each member's vals elementwise with op along a
// binomial tree rooted at root. The root returns the reduction; other
// members return nil. All members must pass equal-length vectors.
func (c *Comm) ReduceU64(root int, vals []uint64, op func(a, b uint64) uint64) []uint64 {
	opSeq := c.nextOp()
	size := len(c.ranks)
	c.checkRoot(root)
	acc := make([]uint64, len(vals))
	copy(acc, vals)
	rel := (c.me - root + size) % size
	round := 0
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			if rel|mask < size {
				pkt := c.recv(c.tag(opSeq, round))
				got, err := codec.NewReader(pkt.Payload).Uvarints()
				if err != nil || len(got) != len(acc) {
					panic(fmt.Sprintf("collective: reduce payload mismatch: %v", err))
				}
				for i := range acc {
					acc[i] = op(acc[i], got[i])
				}
			}
		} else {
			parent := (rel&^mask + root) % size
			w := codec.NewWriter(10 * len(acc))
			w.Uvarints(acc)
			c.send(parent, c.tag(opSeq, round), w.Bytes())
			return nil
		}
		round++
	}
	return acc
}

// AllreduceU64 reduces to member 0 and broadcasts the result back.
func (c *Comm) AllreduceU64(vals []uint64, op func(a, b uint64) uint64) []uint64 {
	acc := c.ReduceU64(0, vals, op)
	var payload []byte
	if c.me == 0 {
		w := codec.NewWriter(10 * len(acc))
		w.Uvarints(acc)
		payload = w.Bytes()
	}
	out, err := codec.NewReader(c.Bcast(0, payload)).Uvarints()
	if err != nil {
		panic(fmt.Sprintf("collective: allreduce decode: %v", err))
	}
	return out
}

// ReduceF64 is ReduceU64 for float vectors.
func (c *Comm) ReduceF64(root int, vals []float64, op func(a, b float64) float64) []float64 {
	opSeq := c.nextOp()
	size := len(c.ranks)
	c.checkRoot(root)
	acc := make([]float64, len(vals))
	copy(acc, vals)
	rel := (c.me - root + size) % size
	round := 0
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			if rel|mask < size {
				pkt := c.recv(c.tag(opSeq, round))
				got, err := codec.NewReader(pkt.Payload).Float64s()
				if err != nil || len(got) != len(acc) {
					panic(fmt.Sprintf("collective: reduce payload mismatch: %v", err))
				}
				for i := range acc {
					acc[i] = op(acc[i], got[i])
				}
			}
		} else {
			parent := (rel&^mask + root) % size
			w := codec.NewWriter(8*len(acc) + 2)
			w.Float64s(acc)
			c.send(parent, c.tag(opSeq, round), w.Bytes())
			return nil
		}
		round++
	}
	return acc
}

// ReduceBytes combines opaque payloads along a binomial tree rooted at
// root with a caller-supplied merge. The root returns the reduction;
// other members return nil. merge receives the accumulator and one
// child's contribution and returns the new accumulator; the contribution
// aliases a received packet, so merge must copy anything it keeps.
// Payload ownership passes to the collective (it may be sent onward).
// The container layer's top-K heavy-hitters query rides on this.
func (c *Comm) ReduceBytes(root int, payload []byte, merge func(acc, in []byte) []byte) []byte {
	opSeq := c.nextOp()
	size := len(c.ranks)
	c.checkRoot(root)
	acc := payload
	rel := (c.me - root + size) % size
	round := 0
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			if rel|mask < size {
				pkt := c.recv(c.tag(opSeq, round))
				acc = merge(acc, pkt.Payload)
			}
		} else {
			parent := (rel&^mask + root) % size
			c.send(parent, c.tag(opSeq, round), acc)
			return nil
		}
		round++
	}
	return acc
}

// AllreduceF64 reduces float vectors to member 0 and broadcasts back.
func (c *Comm) AllreduceF64(vals []float64, op func(a, b float64) float64) []float64 {
	acc := c.ReduceF64(0, vals, op)
	var payload []byte
	if c.me == 0 {
		w := codec.NewWriter(8*len(acc) + 2)
		w.Float64s(acc)
		payload = w.Bytes()
	}
	out, err := codec.NewReader(c.Bcast(0, payload)).Float64s()
	if err != nil {
		panic(fmt.Sprintf("collective: allreduce decode: %v", err))
	}
	return out
}

// Alltoallv performs the synchronous all-to-all exchange MPI_ALLTOALLV
// provides: member i's payloads[j] is delivered to member j. Every member
// must participate; the return slice is indexed by source member. A rank
// cannot leave until it has received from every peer, which couples its
// exit time to the slowest sender — the behaviour Section III contrasts
// with the asynchronous mailbox.
func (c *Comm) Alltoallv(payloads [][]byte) [][]byte {
	sp := c.p.Span("coll.alltoallv")
	defer sp.End()
	opSeq := c.nextOp()
	size := len(c.ranks)
	if len(payloads) != size {
		panic(fmt.Sprintf("collective: alltoallv of %d payloads over %d members", len(payloads), size))
	}
	t := c.tag(opSeq, 0)
	out := make([][]byte, size)
	out[c.me] = payloads[c.me]
	for shift := 1; shift < size; shift++ {
		c.send((c.me+shift)%size, t, payloads[(c.me+shift)%size])
	}
	for i := 1; i < size; i++ {
		pkt := c.recv(t)
		idx := c.indexOf(pkt.Src)
		if idx < 0 {
			panic("collective: alltoallv packet from non-member")
		}
		out[idx] = pkt.Payload
	}
	return out
}

// BlobSink consumes one member's contribution to AlltoallvPooled.
// Implementations must fully process blob before returning: the buffer
// is recycled to the transport pool immediately afterwards.
type BlobSink interface {
	VisitBlob(srcIndex int, blob []byte)
}

// AlltoallvPooled is Alltoallv for pooled payload buffers: member i's
// payloads[j] — acquired from Proc.AcquireBuf — is delivered to member
// j's sink, and each received packet (payload included) is recycled to
// the world pool once its sink call returns, so a steady-state exchange
// allocates nothing. Blobs are visited in member order, matching the
// iteration order of Alltoallv's return slice; empty contributions are
// skipped. The caller's own payloads[me] is visited directly without a
// transport round trip and is NOT recycled — the caller still owns it.
// scratch must hold at least Size() entries and is used as the packet
// reorder table between receives and visits.
func (c *Comm) AlltoallvPooled(payloads [][]byte, scratch []*transport.Packet, sink BlobSink) {
	sp := c.p.Span("coll.alltoallv")
	defer sp.End()
	opSeq := c.nextOp()
	size := len(c.ranks)
	if len(payloads) != size {
		panic(fmt.Sprintf("collective: alltoallv of %d payloads over %d members", len(payloads), size))
	}
	if len(scratch) < size {
		panic(fmt.Sprintf("collective: alltoallv scratch of %d under %d members", len(scratch), size))
	}
	t := c.tag(opSeq, 0)
	for shift := 1; shift < size; shift++ {
		i := (c.me + shift) % size
		c.p.SendPooled(c.ranks[i], t, payloads[i])
	}
	for i := 1; i < size; i++ {
		pkt := c.recv(t)
		idx := c.indexOf(pkt.Src)
		if idx < 0 {
			panic("collective: alltoallv packet from non-member")
		}
		scratch[idx] = pkt
	}
	for idx := 0; idx < size; idx++ {
		if idx == c.me {
			if len(payloads[idx]) > 0 {
				sink.VisitBlob(idx, payloads[idx])
			}
			continue
		}
		pkt := scratch[idx]
		scratch[idx] = nil
		if len(pkt.Payload) > 0 {
			sink.VisitBlob(idx, pkt.Payload)
		}
		c.p.Recycle(pkt)
	}
}

func (c *Comm) checkRoot(root int) {
	if root < 0 || root >= len(c.ranks) {
		panic(fmt.Sprintf("collective: root %d outside communicator of size %d", root, len(c.ranks)))
	}
}
