package transport

import (
	"fmt"
	"testing"

	"ygm/internal/machine"
)

// checkCache fails unless c holds at most 2B entries per kind, nothing
// but nil at or above its counts (a spill or get that left a slot set
// would keep an entry the cache no longer owns), and every counted
// entry set.
func checkCache(t *testing.T, who string, c *poolCache) {
	t.Helper()
	if c.npkt < 0 || c.npkt > 2*poolBatch || c.nbuf < 0 || c.nbuf > 2*poolBatch {
		t.Fatalf("%s: cache holds %d packets and %d buffers, bound %d each", who, c.npkt, c.nbuf, 2*poolBatch)
	}
	for i, pkt := range c.pkts {
		if (pkt != nil) != (i < c.npkt) {
			t.Fatalf("%s: packet slot %d is %v with %d cached", who, i, pkt, c.npkt)
		}
	}
	for i, b := range c.bufs {
		if (b != nil) != (i < c.nbuf) {
			t.Fatalf("%s: buffer slot %d set=%v with %d cached", who, i, b != nil, c.nbuf)
		}
	}
}

// stockedPool returns a pool holding n packets and n 64-byte buffers.
func stockedPool(n int) *bufPool {
	bp := &bufPool{}
	bp.init()
	for i := 0; i < n; i++ {
		bp.pkts = append(bp.pkts, &Packet{})
		bp.bufs = append(bp.bufs, make([]byte, 64))
	}
	return bp
}

// TestPoolCacheRefillTakesB: a get from an empty cache takes exactly B
// of its kind from the shared pool and tops the other kind up to B in
// the same acquisition; the next B-1 gets take no lock at all.
func TestPoolCacheRefillTakesB(t *testing.T) {
	bp := stockedPool(3 * poolBatch)
	c := poolCache{pool: bp}
	c.getPkt()
	if c.npkt != poolBatch-1 || len(bp.pkts) != 2*poolBatch {
		t.Fatalf("refill left %d packets cached and %d pooled, want %d and %d",
			c.npkt, len(bp.pkts), poolBatch-1, 2*poolBatch)
	}
	if c.nbuf != poolBatch || len(bp.bufs) != 2*poolBatch {
		t.Fatalf("refill left %d buffers cached and %d pooled, want %d and %d",
			c.nbuf, len(bp.bufs), poolBatch, 2*poolBatch)
	}
	for i := 1; i < poolBatch; i++ {
		c.getPkt()
		c.getBuf(64)
	}
	if c.shared != 1 {
		t.Fatalf("%d gets took the shared lock %d times, want once", poolBatch, c.shared)
	}
	checkCache(t, "after gets", &c)
	for _, pkt := range bp.pkts[len(bp.pkts):cap(bp.pkts)] {
		if pkt != nil {
			t.Fatalf("refill left a packet it took behind the pool's length")
		}
	}
}

// TestPoolCacheSpillKeepsB: the put that finds a kind full moves B of
// each kind above B to the shared pool in one acquisition, clears the
// slots it moved, and drops what the pool cannot keep.
func TestPoolCacheSpillKeepsB(t *testing.T) {
	bp := stockedPool(poolKeep - 3)
	c := poolCache{pool: bp}
	for i := 0; i < 2*poolBatch+1; i++ {
		c.put(&Packet{Payload: make([]byte, 64)})
	}
	if c.shared != 1 {
		t.Fatalf("%d puts took the shared lock %d times, want once", 2*poolBatch+1, c.shared)
	}
	if c.npkt != poolBatch+1 || c.nbuf != poolBatch+1 {
		t.Fatalf("spill left %d packets and %d buffers cached, want %d each", c.npkt, c.nbuf, poolBatch+1)
	}
	if len(bp.pkts) != poolKeep || len(bp.bufs) != poolKeep {
		t.Fatalf("pool holds %d packets and %d buffers, want poolKeep (%d) each", len(bp.pkts), len(bp.bufs), poolKeep)
	}
	checkCache(t, "after spill", &c)
}

// TestPoolCacheRoundTripSharedOps pins the count this design removes:
// once packets circulate, moving one pooled packet from a sending cache
// to a receiving one takes the shared lock 2/B times, where a lock per
// get and per put took it 2–3 times.
func TestPoolCacheRoundTripSharedOps(t *testing.T) {
	bp := &bufPool{}
	bp.init()
	send, recv := poolCache{pool: bp}, poolCache{pool: bp}
	move := func() {
		buf := send.getBuf(64)
		pkt := send.getPkt()
		pkt.Payload = buf
		recv.put(pkt)
	}
	for i := 0; i < 4*poolBatch; i++ {
		move()
	}
	before := send.shared + recv.shared
	const n = 100 * poolBatch
	for i := 0; i < n; i++ {
		move()
	}
	if got, limit := send.shared+recv.shared-before, uint64(2*n/poolBatch); got > limit {
		t.Fatalf("%d packets took the shared lock %d times, want at most %d (2/B per packet)", n, got, limit)
	}
	checkCache(t, "sender", &send)
	checkCache(t, "receiver", &recv)
}

// TestPoolCacheDryPool: a cache whose refill finds the shared pool dry
// allocates for the next 2B-1 gets without asking again, so an owner
// that outruns the ranks recycling to it still takes the lock once per
// B packets instead of twice per packet.
func TestPoolCacheDryPool(t *testing.T) {
	bp := &bufPool{}
	bp.init()
	c := poolCache{pool: bp}
	for i := 0; i < poolBatch; i++ {
		c.getBuf(64)
		c.getPkt()
	}
	if c.shared != 1 {
		t.Fatalf("%d packets from a dry pool took the shared lock %d times, want once", poolBatch, c.shared)
	}
	c.getBuf(64)
	if c.shared != 2 {
		t.Fatalf("the get after 2B-1 dry ones took the shared lock %d times in all, want twice", c.shared)
	}
	checkCache(t, "dry", &c)
}

// TestPoolCacheBounded runs a LocalWire fan-in of three senders into one
// receiver, with a credit window so that packets circulate, and then
// checks every cache against its 2B bound, the shared pool against
// poolKeep, that no packet is owned twice, and that the shared lock was
// taken at most 2/B times per packet. Run's packet ledger checks that
// every received packet was recycled.
func TestPoolCacheBounded(t *testing.T) {
	const perSender, window = 20000, 64
	const tagData, tagAck = TagUser, TagUser + 1
	var world *World
	caches := make([]poolCache, 4)
	rep, err := Run(Config{Topo: machine.New(1, 4), Seed: 1, Wire: LocalWire{}}, func(p *Proc) error {
		if p.Rank() == 0 {
			world = p.world
			got := make([]int, p.WorldSize())
			for i := 0; i < 3*perSender; i++ {
				pkt := p.Recv(tagData)
				src := pkt.Src
				p.Recycle(pkt)
				if got[src]++; got[src]%window == 0 {
					p.SendPooled(src, tagAck, nil)
				}
			}
		} else {
			for i := 0; i < perSender; i++ {
				if i >= window && i%window == 0 {
					p.Recycle(p.Recv(tagAck))
				}
				buf := p.AcquireBuf(64)
				buf[0] = byte(i)
				p.SendPooled(0, tagData, buf)
			}
			// perSender is not a multiple of window, so the loop above
			// has taken every ack the receiver sends.
		}
		caches[p.Rank()] = p.cache
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	owned := map[*Packet]string{}
	claim := func(pkt *Packet, who string) {
		if prev, dup := owned[pkt]; dup {
			t.Fatalf("packet %p owned by both %s and %s", pkt, prev, who)
		}
		owned[pkt] = who
	}
	for r := range caches {
		who := fmt.Sprintf("rank %d", r)
		checkCache(t, who, &caches[r])
		for _, pkt := range caches[r].pkts[:caches[r].npkt] {
			claim(pkt, who)
		}
	}
	if len(world.pool.pkts) > poolKeep || len(world.pool.bufs) > poolKeep {
		t.Fatalf("shared pool holds %d packets and %d buffers, bound %d", len(world.pool.pkts), len(world.pool.bufs), poolKeep)
	}
	for _, pkt := range world.pool.pkts {
		claim(pkt, "the shared pool")
	}
	if bound := poolKeep + len(caches)*2*poolBatch; len(owned) > bound {
		t.Fatalf("%d packets retained, bound %d", len(owned), bound)
	}
	pkts := rep.Totals().LocalMsgs
	ops := rep.Metrics().Counter("transport.pool.shared_ops")
	t.Logf("%d packets, %d shared-pool acquisitions: %.4f per packet (2/B = %.4f)",
		pkts, ops, float64(ops)/float64(pkts), 2.0/poolBatch)
	if limit := 2 * pkts / poolBatch; ops > limit {
		t.Fatalf("%d packets took the shared lock %d times, want at most %d (2/B per packet)", pkts, ops, limit)
	}
}
