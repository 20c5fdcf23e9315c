package collective

import (
	"bytes"
	"fmt"
	"math"

	"ygm/internal/codec"
	"ygm/internal/transport"
)

// Reduction operators for unsigned and floating-point vectors.
var (
	SumU64 = func(a, b uint64) uint64 { return a + b }
	MaxU64 = func(a, b uint64) uint64 { return max(a, b) }
	MinU64 = func(a, b uint64) uint64 { return min(a, b) }
	SumF64 = func(a, b float64) float64 { return a + b }
	MaxF64 = func(a, b float64) float64 { return max(a, b) }
)

// Barrier blocks until every member has entered it: a zero-width
// allreduce. A member leaves only after transitively hearing from
// everyone, so its exit time is governed by the slowest entrant.
func (c *Comm) Barrier() {
	sp := c.p.Span("coll.barrier")
	defer sp.End()
	c.allreduce(nil, nil)
}

// allreduce runs one generation of c.ar and returns its result slice.
func (c *Comm) allreduce(vals []uint64, op func(a, b uint64) uint64) []uint64 {
	if c.ar.p == nil {
		c.ar.Init(c.p, c.tag(0, 0), c.ranks, c.me)
	}
	c.ar.Start(vals, op)
	for !c.ar.Step() {
		c.p.WaitAny(c.ar.tag)
	}
	return c.ar.Result()
}

// AllreduceU64 combines every member's vals elementwise with op and
// returns the result to every member. All members must pass
// equal-length vectors.
func (c *Comm) AllreduceU64(vals []uint64, op func(a, b uint64) uint64) []uint64 {
	return append([]uint64(nil), c.allreduce(vals, op)...)
}

// AllreduceF64 is AllreduceU64 for float vectors: the words carry float
// bits and are combined as floats. With a commutative op every member
// gets a bit-identical result.
func (c *Comm) AllreduceF64(vals []float64, op func(a, b float64) float64) []float64 {
	words := make([]uint64, len(vals))
	for i, v := range vals {
		words[i] = math.Float64bits(v)
	}
	words = c.allreduce(words, func(a, b uint64) uint64 {
		return math.Float64bits(op(math.Float64frombits(a), math.Float64frombits(b)))
	})
	out := make([]float64, len(words))
	for i, w := range words {
		out[i] = math.Float64frombits(w)
	}
	return out
}

// Bcast distributes root's payload to every member along a binomial tree
// and returns it: the root its own payload, every other member a copy
// of its own. Non-root callers pass nil.
func (c *Comm) Bcast(root int, payload []byte) []byte {
	t := c.tag(c.nextOp(), 0)
	size := c.size
	c.checkRoot(root)
	rel := (c.me - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			pkt := c.p.Recv(t)
			payload = bytes.Clone(pkt.Payload)
			c.p.Recycle(pkt)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < size {
			dst := (rel + mask + root) % size
			c.send(dst, t, payload)
		}
		mask >>= 1
	}
	return payload
}

// send ships a pooled copy of payload to member idx, so the caller keeps
// payload.
func (c *Comm) send(idx int, t transport.Tag, payload []byte) {
	buf := c.p.AcquireBuf(len(payload))
	copy(buf, payload)
	c.p.SendPooled(c.Rank(idx), t, buf)
}

// ReduceF64 combines each member's vals elementwise with op along
// ReduceBytes's tree. The root returns the reduction; other members
// return nil. All members must pass equal-length vectors.
func (c *Comm) ReduceF64(root int, vals []float64, op func(a, b float64) float64) []float64 {
	acc := append([]float64(nil), vals...)
	w := codec.NewWriter(8*len(acc) + 2)
	w.Float64s(acc)
	if c.ReduceBytes(root, w.Bytes(), func(_, in []byte) []byte {
		got, err := codec.NewReader(in).Float64s()
		if err != nil || len(got) != len(acc) {
			panic(fmt.Sprintf("collective: reduce payload mismatch: %v", err))
		}
		for i := range acc {
			acc[i] = op(acc[i], got[i])
		}
		w.Reset()
		w.Float64s(acc)
		return w.Bytes()
	}) == nil {
		return nil
	}
	return acc
}

// ReduceBytes combines opaque payloads along a binomial tree rooted at
// root with a caller-supplied merge. The root returns the reduction;
// other members return nil. merge receives the accumulator and one
// child's contribution and returns the new accumulator; the contribution
// aliases a received payload that is recycled when merge returns, so
// merge must copy anything it keeps. The caller keeps payload: what goes
// up the tree is a pooled copy of the accumulator. The container layer's
// top-K heavy-hitters query rides on this.
func (c *Comm) ReduceBytes(root int, payload []byte, merge func(acc, in []byte) []byte) []byte {
	opSeq := c.nextOp()
	size := c.size
	c.checkRoot(root)
	acc := payload
	rel := (c.me - root + size) % size
	round := 0
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			if rel|mask < size {
				pkt := c.p.Recv(c.tag(opSeq, round))
				acc = merge(acc, pkt.Payload)
				c.p.Recycle(pkt)
			}
		} else {
			c.send((rel&^mask+root)%size, c.tag(opSeq, round), acc)
			return nil
		}
		round++
	}
	return acc
}

// BlobSink consumes one member's contribution to AlltoallvPooled.
// Implementations must fully process blob before returning: the buffer
// is recycled to the transport pool immediately afterwards.
type BlobSink interface {
	VisitBlob(srcIndex int, blob []byte)
}

// AlltoallvPooled performs the synchronous all-to-all exchange
// MPI_ALLTOALLV provides: member i's payloads[j] is delivered to member
// j's sink. Every member must participate. A rank cannot leave until it
// has received from every peer, which couples its exit time to the
// slowest sender — the behaviour Section III contrasts with the
// asynchronous mailbox.
//
// Each payload sent joins the transport's pool (Proc.SendPooled), and
// each received packet is recycled (Proc.Recycle) once its sink call
// returns, so a steady-state exchange of AcquireBuf buffers allocates
// nothing. Blobs are visited in member order; empty contributions are
// skipped. The caller's own payloads[me] is visited directly without a
// transport round trip and is NOT recycled — the caller still owns it.
// scratch must hold at least Size() entries and is used as the packet
// reorder table between receives and visits.
func (c *Comm) AlltoallvPooled(payloads [][]byte, scratch []*transport.Packet, sink BlobSink) {
	sp := c.p.Span("coll.alltoallv")
	defer sp.End()
	opSeq := c.nextOp()
	size := c.size
	if len(payloads) != size {
		panic(fmt.Sprintf("collective: alltoallv of %d payloads over %d members", len(payloads), size))
	}
	if len(scratch) < size {
		panic(fmt.Sprintf("collective: alltoallv scratch of %d under %d members", len(scratch), size))
	}
	t := c.tag(opSeq, 0)
	for shift := 1; shift < size; shift++ {
		i := (c.me + shift) % size
		c.p.SendPooled(c.Rank(i), t, payloads[i])
	}
	for i := 1; i < size; i++ {
		pkt := c.p.Recv(t)
		scratch[c.indexOf(pkt.Src)] = pkt
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
	if root < 0 || root >= c.size {
		panic(fmt.Sprintf("collective: root %d outside communicator of size %d", root, c.size))
	}
}
