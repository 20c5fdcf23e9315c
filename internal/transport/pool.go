package transport

import "sync"

// Packets and pooled payload buffers are recycled on two levels. Each
// goroutine that creates or retires packets — every Proc, and every TCP
// reader — owns a poolCache, which it alone touches: Proc.AcquireBuf,
// Proc.SendPooled, Proc.Recycle, TCPWire.Inject and the TCP reader take
// from and return to their owner's cache without a lock. Behind the caches
// sits one bufPool per World, the shared backend a cache refills from
// when a kind runs dry and spills to when a kind is full, poolBatch
// entries at a time under one lock acquisition. Coalescing buffers are
// acquired at the sender (AcquireBuf), travel inside a pooled packet,
// and come back at the receiver (Recycle) once the mailbox has
// dispatched every record — the cross-rank flow that makes the
// steady-state exchange path allocation-free, and the one that the
// shared pool exists to close (senders drain their caches, receivers
// fill theirs). Every payload handed to the transport joins the pool,
// wherever it was allocated: every received packet is recycled, and its
// payload goes back with it. Run's packet ledger checks the packets.
//
// Retention is bounded per kind by poolKeep in the shared pool plus
// 2·poolBatch in each cache.

// poolBatch is B: how many entries of a kind one refill or spill moves.
// A cache holds at most 2B of each kind, so a refill (which starts from
// an empty kind) and a spill (which starts from a full one) are each at
// least B gets or puts apart, and the shared lock is taken at most 2/B
// times per packet — once by the cache that hands it out, once by the
// cache that takes it back. The arrays sit inline in every Proc, so B
// is memory: at 8 the 65,536-rank weak-scaling world allocated 7 % more
// than with no caches, at 4 it allocates 3.6 % more.
const poolBatch = 4

// bufPool is the World's shared free lists, reached only through a
// poolCache's refill and spill.
type bufPool struct {
	mu   sync.Mutex
	bufs [][]byte
	pkts []*Packet
}

// poolKeep bounds the entries per kind the shared pool retains so a
// burst cannot pin memory forever; overflow simply falls back to the
// garbage collector.
const poolKeep = 1024

// poolSeed is the initial capacity of each free list. Both lists churn
// from the first exchange on, so growing them from nil costs a dozen
// reallocations per run; seeding skips those for the common population
// while staying far under poolKeep.
const poolSeed = 128

// init gives both free lists their initial capacity. Called once per
// World before any rank runs.
func (bp *bufPool) init() {
	bp.bufs = make([][]byte, 0, poolSeed)
	bp.pkts = make([]*Packet, 0, poolSeed)
}

// poolCache is one owner goroutine's packets and payload buffers, in
// fixed inline arrays so that the cache itself never allocates. Slots at
// or above npkt and nbuf are always nil: a cache never holds a reference
// to an entry it has handed out or spilled.
type poolCache struct {
	pool *bufPool
	pkts [2 * poolBatch]*Packet
	bufs [2 * poolBatch][]byte
	npkt int
	nbuf int
	// dry counts the gets that will allocate without asking the shared
	// pool, after a refill found it dry; see refilled.
	dry int
	// shared counts refills plus spills: this cache's acquisitions of the
	// shared pool's lock. Reported as transport.pool.shared_ops.
	shared uint64
}

// getPkt returns a zeroed Packet, refilling the cache when it has none
// and allocating only when the shared pool is dry as well.
func (c *poolCache) getPkt() *Packet {
	if c.npkt == 0 && !c.refilled(&c.npkt) {
		return &Packet{}
	}
	c.npkt--
	pkt := c.pkts[c.npkt]
	c.pkts[c.npkt] = nil
	return pkt
}

// getBuf returns a length-n buffer, reusing cached storage when the
// buffer on top has sufficient capacity.
func (c *poolCache) getBuf(n int) []byte {
	if c.nbuf == 0 && !c.refilled(&c.nbuf) {
		return make([]byte, n)
	}
	c.nbuf--
	b := c.bufs[c.nbuf]
	c.bufs[c.nbuf] = nil
	if cap(b) >= n {
		return b[:n]
	}
	// Too small: let it go and size up. The pool converges to the
	// largest buffers in circulation.
	return make([]byte, n)
}

// put takes back pkt and its payload. Neither may be touched by the
// caller afterwards.
func (c *poolCache) put(pkt *Packet) {
	payload := pkt.Payload
	keepBuf := payload != nil
	if keepBuf {
		poisonPayload(payload)
	}
	*pkt = Packet{}
	if c.npkt == len(c.pkts) || keepBuf && c.nbuf == len(c.bufs) {
		c.spill()
	}
	c.pkts[c.npkt] = pkt
	c.npkt++
	if keepBuf {
		c.bufs[c.nbuf] = payload
		c.nbuf++
	}
}

// refilled serves a get that found its kind empty (count points at the
// kind's count) and reports whether the kind now holds an entry. A
// refill that leaves it empty means the shared pool is dry — every
// packet is in flight or queued in an inbox, as when a TCP reader
// outruns its rank — and then the next 2B-1 gets that find their kind
// empty allocate without asking: a refill serves at most 2B gets, so
// the lock is still taken at most once per B packets.
func (c *poolCache) refilled(count *int) bool {
	if c.dry > 0 {
		c.dry--
		return false
	}
	c.refill()
	if *count == 0 {
		c.dry = 2*poolBatch - 1
		return false
	}
	return true
}

// refill tops each kind up to B from the shared pool under one lock.
// It runs when one kind is empty; topping up the other as well lets a
// sender's buffer and packet refills share the acquisition.
func (c *poolCache) refill() {
	bp := c.pool
	c.shared++
	bp.mu.Lock()
	c.npkt = refillKind(c.pkts[:], c.npkt, &bp.pkts)
	c.nbuf = refillKind(c.bufs[:], c.nbuf, &bp.bufs)
	bp.mu.Unlock()
}

// spill returns each kind above B down to B to the shared pool under
// one lock; what the pool cannot keep is left to the garbage collector.
// It runs when one kind is full.
func (c *poolCache) spill() {
	bp := c.pool
	c.shared++
	bp.mu.Lock()
	c.npkt = spillKind(c.pkts[:], c.npkt, &bp.pkts)
	c.nbuf = spillKind(c.bufs[:], c.nbuf, &bp.bufs)
	bp.mu.Unlock()
}

// refillKind moves entries from the end of the shared list *shared into
// cache[n:] until the cache holds B, or the list is empty, and returns
// the new count. The caller holds the pool lock.
func refillKind[T any](cache []T, n int, shared *[]T) int {
	k := min(poolBatch-n, len(*shared))
	if k <= 0 {
		return n
	}
	rest := len(*shared) - k
	copy(cache[n:], (*shared)[rest:])
	clear((*shared)[rest:])
	*shared = (*shared)[:rest]
	return n + k
}

// spillKind moves cache[B:n] onto the shared list *shared, as far as
// poolKeep allows, clears the moved slots and returns the new count. The
// caller holds the pool lock.
func spillKind[T any](cache []T, n int, shared *[]T) int {
	if n <= poolBatch {
		return n
	}
	moved := cache[poolBatch:n]
	*shared = append(*shared, moved[:min(len(moved), poolKeep-len(*shared))]...)
	clear(moved)
	return poolBatch
}
