package container

import (
	"fmt"
	"sort"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// Counter is a distributed accumulator: a multimap-style key→count
// store where AsyncAdd contributions from every rank merge by addition
// on the owner. The word-count/degree-count/kmer-count family is exactly
// this container.
type Counter struct {
	e     *Engine
	cid   uint64
	part  Partitioner
	me    machine.Rank
	world int

	// local boxes the counts so increments mutate through the pointer —
	// a map assignment with a converted []byte key would allocate on
	// every AsyncAdd delivery instead of only on first touch.
	local    map[string]*uint64
	visitors []func(c *Counter, key, arg []byte)
	fetchers []func(c *Counter, key, arg []byte, reply *codec.Writer)

	comb combiner
}

// Sender-side combining. Addition commutes, so contributions to one
// remote key need not travel one record each: a Counter holds them in a
// small direct-mapped table and ships the sum. The constants are chosen
// from BenchmarkCounterAdd (EXPERIMENTS.md, "COST: wordcount").
const (
	// combinerSlots is the size the table may grow to, combinerMinSlots
	// the size it starts at; both are powers of two. It doubles each time
	// evictions have turned over a table's worth of slots, so a Counter
	// over a few keys, or a short-lived one, never pays for (or sweeps at
	// Barrier) more table than its keys collide in.
	combinerSlots    = 8192
	combinerMinSlots = 64
	// combinerKeyMax is the inline key width; longer keys ship directly.
	combinerKeyMax = 18
	// The hit-rate bypass: after every combinerWindow table probes, fewer
	// than combinerMinHits hits sends the next combinerBypass remote adds
	// straight to the mailbox, then the table is sampled again.
	combinerWindow  = 8192
	combinerMinHits = combinerWindow / 8
	combinerBypass  = 16 * combinerWindow
)

// combSlot is one pending contribution. The key is stored inline so the
// table is a single pointer-free allocation.
type combSlot struct {
	count uint64
	owner machine.Rank
	used  bool
	n     uint8
	key   [combinerKeyMax]byte
}

// combiner is a Counter's table of pending remote contributions plus the
// state of its hit-rate bypass. The zero value is an unallocated table:
// a Counter that never issues a remote AsyncAdd pays nothing for it.
type combiner struct {
	slots   []combSlot
	live    int // used slots
	evicted int // evictions since the table was allocated or last grew

	probes, hits uint32 // the current sampling window
	bypass       uint32 // remote adds still to ship directly
}

// KeyCount is one entry of a TopK result.
type KeyCount struct {
	Key   string
	Count uint64
}

// NewCounter registers a fresh Counter on the engine. Collective; nil
// partitioner means the default HashPartitioner.
func NewCounter(e *Engine, part Partitioner) *Counter {
	if part == nil {
		part = HashPartitioner{}
	}
	c := &Counter{
		e:     e,
		part:  part,
		me:    e.p.Rank(),
		world: e.p.WorldSize(),
		local: make(map[string]*uint64),
	}
	c.cid = e.register(c)
	return c
}

// Owner returns the rank that accumulates key.
func (c *Counter) Owner(key []byte) machine.Rank { return c.part.Owner(key, c.world) }

// AsyncAdd contributes delta to key's count on its owner. A self-owned
// key is updated in place. A remote key's contribution is merged with
// this rank's earlier pending contributions to the same key and shipped
// as one record when its table slot is needed by another key, when this
// rank visits or fetches the key, or at the next Barrier. An add issued
// from a handler or fetch callback ships at once: those run inside
// Barrier's WaitEmpty, after its flush.
//
// Visibility: the contribution has reached the owner by the time the
// next Engine.Barrier returns, and before any AsyncVisit or
// AsyncVisitFetch this rank issues on the same key afterwards runs.
func (c *Counter) AsyncAdd(key []byte, delta uint64) {
	owner := c.Owner(key)
	if owner == c.me {
		c.e.cAddLocal.Inc()
		c.applyAdd(key, delta)
		return
	}
	c.combine(owner, key, delta)
}

// AsyncIncr is AsyncAdd with delta 1.
func (c *Counter) AsyncIncr(key []byte) { c.AsyncAdd(key, 1) }

// combine merges a remote contribution into the combiner, or ships it
// directly when the key is too long for a slot, the bypass is on, or a
// handler issued it.
func (c *Counter) combine(owner machine.Rank, key []byte, delta uint64) {
	cb := &c.comb
	if cb.bypass > 0 || len(key) > combinerKeyMax || c.e.rDepth > 0 {
		if cb.bypass > 0 {
			cb.bypass--
		}
		c.e.cAddBypassed.Inc()
		c.e.asyncAdd(owner, c.cid, key, delta)
		return
	}
	if cb.slots == nil {
		c.startCombining()
	}
	s := cb.slot(key)
	if s.holds(key) {
		s.count += delta
		c.e.cAddCombined.Inc()
		cb.sample(1)
		return
	}
	cb.sample(0)
	// Take the slot before shipping what it held: Send polls, and a
	// handler it dispatches may visit or fetch this key and detach it.
	old := *s
	s.count, s.owner, s.used, s.n = delta, owner, true, uint8(len(key))
	copy(s.key[:], key)
	if !old.used {
		cb.live++
		return
	}
	cb.evicted++
	c.shipSlot(&old)
	if cb.evicted >= len(cb.slots) && len(cb.slots) < c.e.combSlots {
		c.growCombiner()
	}
}

// sample counts one table probe (hit is 1 or 0) and, at the end of each
// window, turns the bypass on if the window saw too little reuse.
func (cb *combiner) sample(hit uint32) {
	cb.hits += hit
	if cb.probes++; cb.probes == combinerWindow {
		if cb.hits < combinerMinHits {
			cb.bypass = combinerBypass
		}
		cb.probes, cb.hits = 0, 0
	}
}

// detach empties s and returns what it held.
func (cb *combiner) detach(s *combSlot) combSlot {
	old := *s
	s.used = false
	cb.live--
	return old
}

// startCombining allocates the table, on the Counter's first remote add
// that can use it, and enrols the Counter in Barrier's flush.
func (c *Counter) startCombining() {
	c.comb.slots = make([]combSlot, min(combinerMinSlots, c.e.combSlots))
	c.e.combining = append(c.e.combining, c)
}

// growCombiner doubles the table. The index is the hash's low bits, so
// slot i's entry lands in slot i or i+len of the new table and nothing
// collides or ships. The caller holds no slot pointer across the call.
func (c *Counter) growCombiner() {
	cb := &c.comb
	old := cb.slots
	cb.slots = make([]combSlot, 2*len(old))
	for i := range old {
		if s := &old[i]; s.used {
			*cb.slot(s.key[:s.n]) = *s
		}
	}
	cb.evicted = 0
}

// slot returns the one slot key can occupy in the (allocated) table.
func (cb *combiner) slot(key []byte) *combSlot {
	return &cb.slots[slotHash(key)&uint64(len(cb.slots)-1)]
}

// holds reports whether s is the pending contribution for key.
func (s *combSlot) holds(key []byte) bool {
	return s.used && string(s.key[:s.n]) == string(key)
}

// slotHash is FNV-1a with the high half folded down: the multiply only
// carries upward, and the table index is the low bits.
func slotHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h ^ h>>32
}

// shipSlot sends a contribution that has already been detached from the
// table as one ordinary opAdd record.
func (c *Counter) shipSlot(s *combSlot) {
	c.e.cAddShipped.Inc()
	c.e.asyncAdd(s.owner, c.cid, s.key[:s.n], s.count)
}

// takePending detaches and returns the pending contribution for key, if
// the combiner holds one.
func (c *Counter) takePending(key []byte) (delta uint64, ok bool) {
	cb := &c.comb
	if cb.live == 0 || len(key) > combinerKeyMax {
		return 0, false
	}
	s := cb.slot(key)
	if !s.holds(key) {
		return 0, false
	}
	return cb.detach(s).count, true
}

// leadPending pushes the scratch writer for a visit or fetch of key and,
// if this rank has a pending contribution to key, leads the record with
// it. Program order per key is kept inside one mailbox record; a
// separate Send ahead of the visit would poll, and a handler-spawned
// visit could then overtake the one the caller has already announced.
func (c *Counter) leadPending(key []byte) *codec.Writer {
	w := c.e.pushWriter()
	if delta, ok := c.takePending(key); ok {
		c.e.cAddShipped.Inc()
		putAdd(w, c.cid, key, delta)
	}
	return w
}

// flushPending ships every pending contribution, leaving the table
// empty: each slot is detached before its Send, and the handlers that
// Send may run only ever detach slots.
func (c *Counter) flushPending() {
	cb := &c.comb
	for i := 0; i < len(cb.slots) && cb.live > 0; i++ {
		if s := &cb.slots[i]; s.used {
			old := cb.detach(s)
			c.shipSlot(&old)
		}
	}
}

// RegisterVisitor installs a fire-and-forget visitor (Map contract).
func (c *Counter) RegisterVisitor(fn func(c *Counter, key, arg []byte)) uint64 {
	c.visitors = append(c.visitors, fn)
	return uint64(len(c.visitors) - 1)
}

// RegisterFetcher installs a reply-producing visitor for AsyncVisitFetch.
func (c *Counter) RegisterFetcher(fn func(c *Counter, key, arg []byte, reply *codec.Writer)) uint64 {
	c.fetchers = append(c.fetchers, fn)
	return uint64(len(c.fetchers) - 1)
}

// AsyncVisit runs visitor vid on key's owner. The visitor sees every
// contribution this rank made to key before the call (AsyncAdd's
// visibility rule).
func (c *Counter) AsyncVisit(vid uint64, key, arg []byte) {
	c.e.shipVisit(c.leadPending(key), c.Owner(key), c.cid, vid, key, arg)
}

// AsyncVisitFetch runs fetcher vid on key's owner and routes the reply
// back to cb. The Map.AsyncVisitFetch contract holds: cb runs in handler
// context, before AsyncVisitFetch returns for a self-owned key and by
// the end of the next Barrier in any case, and must neither retain reply
// nor call Barrier. Read-your-writes includes the combiner: the fetcher
// sees this rank's earlier contributions to key.
func (c *Counter) AsyncVisitFetch(vid uint64, key, arg []byte, cb func(reply []byte)) {
	c.e.shipFetch(c.leadPending(key), c.Owner(key), c.cid, vid, key, arg, cb)
}

// LocalAdd folds delta into key on this rank directly (owner-side
// mutation for visitors that compute contributions in place; the
// Map.LocalPut contract).
func (c *Counter) LocalAdd(key []byte, delta uint64) { c.applyAdd(key, delta) }

// LocalCount returns key's accumulated count on this rank's shard.
func (c *Counter) LocalCount(key []byte) uint64 {
	if p, ok := c.local[string(key)]; ok {
		return *p
	}
	return 0
}

// ForAll applies fn to every key→count pair, shard by shard, after a
// Barrier. Collective; fn must not issue container operations.
func (c *Counter) ForAll(fn func(key string, count uint64)) {
	c.e.Barrier()
	for k, p := range c.local {
		fn(k, *p)
	}
}

// Size returns the global number of distinct keys (collective, includes
// a Barrier).
func (c *Counter) Size() uint64 {
	c.e.Barrier()
	return c.e.allreduceSum(uint64(len(c.local)))
}

// LocalSize returns this rank's shard size without synchronizing.
func (c *Counter) LocalSize() int { return len(c.local) }

// TopK returns the k globally heaviest keys, ordered by descending
// count with ties broken by ascending key — the heavy-hitters query.
// Collective: every rank gets the same result. Each rank selects its
// local top k, then the candidate lists merge pairwise up a binomial
// tree (no rank ever materializes more than 2k candidates) and the root
// broadcasts the winners.
func (c *Counter) TopK(k int) []KeyCount {
	c.e.Barrier()
	cand := make([]KeyCount, 0, len(c.local))
	for key, p := range c.local {
		cand = append(cand, KeyCount{Key: key, Count: *p})
	}
	cand = trimTopK(cand, k)
	merged := c.e.comm.ReduceBytes(0, encodeKeyCounts(cand), func(acc, in []byte) []byte {
		both := append(decodeKeyCounts(acc), decodeKeyCounts(in)...)
		return encodeKeyCounts(trimTopK(both, k))
	})
	return decodeKeyCounts(c.e.comm.Bcast(0, merged))
}

// trimTopK sorts by (count desc, key asc) and keeps at most k entries.
func trimTopK(kc []KeyCount, k int) []KeyCount {
	sort.Slice(kc, func(i, j int) bool {
		if kc[i].Count != kc[j].Count {
			return kc[i].Count > kc[j].Count
		}
		return kc[i].Key < kc[j].Key
	})
	if len(kc) > k {
		kc = kc[:k]
	}
	return kc
}

func encodeKeyCounts(kc []KeyCount) []byte {
	w := codec.NewWriter(16 * (len(kc) + 1))
	w.Uvarint(uint64(len(kc)))
	for _, e := range kc {
		w.String(e.Key)
		w.Uvarint(e.Count)
	}
	return w.Bytes()
}

func decodeKeyCounts(buf []byte) []KeyCount {
	r := codec.NewReader(buf)
	n, err := r.Uvarint()
	if err == nil && n > uint64(r.Remaining()) {
		err = fmt.Errorf("%d entries in %d bytes", n, r.Remaining())
	}
	if err != nil {
		panic(fmt.Sprintf("container: corrupt top-k payload: %v", err))
	}
	out := make([]KeyCount, 0, n)
	for i := uint64(0); i < n; i++ {
		key, err1 := r.String()
		cnt, err2 := r.Uvarint()
		if err1 != nil || err2 != nil {
			panic(fmt.Sprintf("container: corrupt top-k payload: %v %v", err1, err2))
		}
		out = append(out, KeyCount{Key: key, Count: cnt})
	}
	return out
}

// instance implementation (owner side).

func (c *Counter) applyInsert(key, val []byte) {
	panic("container: Counter does not support opInsert (use AsyncAdd)")
}

func (c *Counter) applyErase(key []byte) {
	delete(c.local, string(key))
}

func (c *Counter) applyAdd(key []byte, delta uint64) {
	if p, ok := c.local[string(key)]; ok {
		*p += delta
		return
	}
	v := delta
	c.local[string(key)] = &v
}

func (c *Counter) runVisit(vid uint64, key, arg []byte) {
	if vid >= uint64(len(c.visitors)) {
		panic(fmt.Sprintf("container: counter visit with unregistered visitor %d", vid))
	}
	c.visitors[vid](c, key, arg)
}

func (c *Counter) runFetch(vid uint64, key, arg []byte, reply *codec.Writer) {
	if vid >= uint64(len(c.fetchers)) {
		panic(fmt.Sprintf("container: counter fetch with unregistered fetcher %d", vid))
	}
	c.fetchers[vid](c, key, arg, reply)
}

func (c *Counter) localLen() uint64 { return uint64(len(c.local)) }
