package simtest

import (
	"bytes"
	"fmt"
	"math/rand"

	"ygm/internal/codec"
	"ygm/internal/container"
	"ygm/internal/machine"
	"ygm/internal/synch"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// ContainerCase is one randomized distributed-container workload: every
// rank runs a seeded script of Map puts/erases, Counter bumps (with
// chained owner-side visits), read-your-writes fetches, and phase
// barriers, on the engine variant and wire under test. Two records judge
// the run:
//
//   - a container model: the script is deterministic, so every rank
//     independently replays all ranks' scripts into a sequential model
//     and checks the final distributed state (ForAll sweeps, owner
//     placement, global sizes, TopK, fetch replies) against it;
//   - the run's synch.Log: container operations that run user code on
//     the owner carry their (origin, seq) message identity in the
//     visitor argument, so the run's MSC is recorded exactly as for raw
//     mailbox workloads, and judge checks it for exactly-once delivery
//     at the owner and for reorder-equivalence to synchronous rounds.
//
// Raw fire-and-forget operations (AsyncInsert/AsyncErase/AsyncAdd) have
// no owner-side code to report their delivery, so they are judged by the
// model only; transport.Run's ledger still counts their packets.
type ContainerCase struct {
	Seed         int64
	Nodes, Cores int
	Variant      ygm.ExchangeStyle
	// Phases is the number of script-then-Barrier rounds.
	Phases int
	// Ops is the number of container operations per rank per phase.
	Ops int
	// Slots is the size of each rank's private Map key namespace.
	Slots int
	// CKeys is the size of the shared Counter key space.
	CKeys int
	// TTL is the maximum chained-visit depth of a Counter bump.
	TTL int
	// Capacity is the mailbox capacity (small forces communication).
	Capacity int
	// Wire selects the transport backend: "" or "sim", or "local".
	Wire string
}

func (c ContainerCase) String() string {
	wire := c.Wire
	if wire == "" {
		wire = "sim"
	}
	return fmt.Sprintf("seed=%d,topo=%dx%d,variant=%s,phases=%d,ops=%d,slots=%d,ckeys=%d,ttl=%d,cap=%d,wire=%s",
		c.Seed, c.Nodes, c.Cores, c.Variant, c.Phases, c.Ops, c.Slots, c.CKeys, c.TTL, c.Capacity, wire)
}

func (c ContainerCase) validate() error {
	if c.Nodes <= 0 || c.Cores <= 0 || c.Phases <= 0 || c.Ops <= 0 ||
		c.Slots <= 0 || c.CKeys <= 0 || c.Capacity <= 0 || c.TTL < 0 {
		return fmt.Errorf("simtest: invalid container case %q", c)
	}
	// Chained-visit keys reuse the harness's deterministic spawn-key
	// packing (see msgKey): per-rank recorded ops stay below 128, the
	// world at 128 ranks and the chain depth below 3 so child keys never
	// collide.
	if c.Nodes*c.Cores > 128 {
		return fmt.Errorf("simtest: %d ranks overflow the deterministic spawn-key encoding (max 128)", c.Nodes*c.Cores)
	}
	if c.Phases*c.Ops > 127 {
		return fmt.Errorf("simtest: %d container ops per rank overflow the spawn-key encoding (max 127)", c.Phases*c.Ops)
	}
	if c.TTL > 2 {
		return fmt.Errorf("simtest: container ttl %d overflows the spawn-key encoding (max 2)", c.TTL)
	}
	if c.Wire != "" && c.Wire != "sim" && c.Wire != "local" {
		return fmt.Errorf("simtest: container case wire %q (have sim, local)", c.Wire)
	}
	return nil
}

// Container op kinds. The visit-backed kinds carry their message
// identity to the owner and feed the synchronizability log; the raw
// kinds exercise the engine's plain opcodes under the model oracle.
const (
	copPut      = iota // Map put via visitor
	copRawPut          // Map AsyncInsert
	copErase           // Map erase via visitor
	copRawErase        // Map AsyncErase
	copBump            // Counter add via visitor, chaining TTL hops
	copRawBump         // Counter AsyncAdd
	copFetch           // Map AsyncVisitFetch, reply checked
)

// cop is one scripted container operation.
type cop struct {
	kind int
	slot int    // Map slot (put/erase/fetch) or Counter key index (bump)
	val  uint64 // value / delta seed
	ttl  int    // copBump chain depth
	seq  uint64 // recorded ops: this op's synch sequence number
	rec  bool   // whether the op is synch-recorded
	// Fetch expectation, captured from the generated program-order state
	// (read-your-writes: only this rank writes its slots, and requests
	// ride the same FIFO mailbox channel as the writes before them).
	expectPresent bool
	expectVal     []byte
}

func mkeyBytes(rank machine.Rank, slot int) []byte {
	return []byte(fmt.Sprintf("m%d-%d", rank, slot))
}

func ckeyBytes(idx int) []byte {
	return []byte(fmt.Sprintf("c%02d", idx))
}

func mvalBytes(rank machine.Rank, slot int, val uint64) []byte {
	return []byte(fmt.Sprintf("v%d.%d.%d", rank, slot, val))
}

// genContainerScript derives rank's deterministic operation script, one
// slice per phase, tracking the rank's own Map slots in program order so
// fetch expectations are exact.
func genContainerScript(c ContainerCase, rank machine.Rank) [][]cop {
	rng := rand.New(rand.NewSource(c.Seed*1000003 + int64(rank)*8191 + 29))
	slotVal := make([][]byte, c.Slots) // nil = absent
	phases := make([][]cop, c.Phases)
	var seq uint64
	for ph := range phases {
		ops := make([]cop, 0, c.Ops)
		for i := 0; i < c.Ops; i++ {
			op := cop{val: uint64(rng.Intn(1 << 16))}
			switch k := rng.Intn(10); {
			case k < 2:
				op.kind = copPut
			case k < 4:
				op.kind = copRawPut
			case k == 4:
				op.kind = copErase
			case k == 5:
				op.kind = copRawErase
			case k < 8:
				op.kind = copBump
			case k == 8:
				op.kind = copRawBump
			default:
				op.kind = copFetch
			}
			switch op.kind {
			case copBump, copRawBump:
				op.slot = rng.Intn(c.CKeys)
				op.ttl = rng.Intn(c.TTL + 1)
			default:
				op.slot = rng.Intn(c.Slots)
			}
			switch op.kind {
			case copPut, copRawPut:
				slotVal[op.slot] = mvalBytes(rank, op.slot, op.val)
			case copErase, copRawErase:
				slotVal[op.slot] = nil
			case copFetch:
				op.expectPresent = slotVal[op.slot] != nil
				op.expectVal = slotVal[op.slot]
			}
			if op.rec = op.kind != copRawPut && op.kind != copRawErase && op.kind != copRawBump; op.rec {
				op.seq = seq << 1 // even: top-level keys (msgKey discipline)
				seq++
			}
			ops = append(ops, op)
		}
		phases[ph] = ops
	}
	return phases
}

// containerModel is the sequential ground truth of one case: the final
// global Map and Counter contents, computed by replaying every rank's
// script.
type containerModel struct {
	mapVals map[string][]byte
	counts  map[string]uint64
}

func buildContainerModel(c ContainerCase, world int) containerModel {
	part := container.HashPartitioner{}
	m := containerModel{
		mapVals: make(map[string][]byte),
		counts:  make(map[string]uint64),
	}
	for r := 0; r < world; r++ {
		rank := machine.Rank(r)
		for _, ops := range genContainerScript(c, rank) {
			for _, op := range ops {
				switch op.kind {
				case copPut, copRawPut:
					m.mapVals[string(mkeyBytes(rank, op.slot))] = mvalBytes(rank, op.slot, op.val)
				case copErase, copRawErase:
					delete(m.mapVals, string(mkeyBytes(rank, op.slot)))
				case copBump, copRawBump:
					delta := 1 + op.val%5
					key := msgKey{origin: rank, seq: op.seq}
					if op.kind == copRawBump {
						// Raw adds never chain; identity is irrelevant.
						m.counts[string(ckeyBytes(op.slot))] += delta
						continue
					}
					idx, ttl := op.slot, op.ttl
					for {
						kb := ckeyBytes(idx)
						m.counts[string(kb)] += delta
						if ttl == 0 {
							break
						}
						owner := part.Owner(kb, world)
						key = spawnKey(owner, key)
						idx = int(spawnHash(key) % uint64(c.CKeys))
						ttl--
					}
				}
			}
		}
	}
	return m
}

// RunContainerCase executes one container workload and returns the
// per-oracle verdicts (Outcome.Cert is the synchronous round schedule on
// success, as for RunCaseOutcome).
func RunContainerCase(c ContainerCase) Outcome {
	if err := c.validate(); err != nil {
		return Outcome{Runtime: err}
	}
	return runContainerChecked(c, buildContainerModel(c, machine.New(c.Nodes, c.Cores).WorldSize()))
}

// runContainerChecked runs c against an explicit ground-truth model —
// the oracle's own teeth test corrupts the model to prove mismatches are
// reported.
func runContainerChecked(c ContainerCase, model containerModel) Outcome {
	topo := machine.New(c.Nodes, c.Cores)
	world := topo.WorldSize()
	rec := synch.NewRecorder(world)
	vlogs := make([][]string, world) // goroutine-confined, merged post-run

	cfgOpts := []transport.ConfigOption{transport.WithSeed(c.Seed)}
	if c.Wire == "local" {
		cfgOpts = append(cfgOpts, transport.WithWire(transport.LocalWire{}))
	} else {
		cfgOpts = append(cfgOpts, transport.WithWatchdogInterval(watchdogInterval))
	}
	cfg := transport.NewConfig(topo, cfgOpts...)
	_, err := transport.Run(cfg, func(p *transport.Proc) error {
		return runContainerRank(p, c, model, rec, &vlogs[p.Rank()])
	})
	if err != nil {
		return Outcome{Runtime: err}
	}

	var viols []string
	for _, vs := range vlogs {
		viols = append(viols, vs...)
	}
	return judge(rec.Log(), viols)
}

// Visitor argument layouts (encoded with internal/codec):
//
//	put:   uvarint origin, seq; bytes0 value
//	erase: uvarint origin, seq
//	bump:  uvarint origin, seq, delta; byte ttl
//	fetch: uvarint origin, seq
func encodeIdent(w *codec.Writer, k msgKey) {
	w.Uvarint(uint64(k.origin))
	w.Uvarint(k.seq)
}

func decodeIdent(r *codec.Reader) (msgKey, error) {
	origin, err := r.Uvarint()
	if err != nil {
		return msgKey{}, err
	}
	seq, err := r.Uvarint()
	if err != nil {
		return msgKey{}, err
	}
	return msgKey{origin: machine.Rank(origin), seq: seq}, nil
}

// runContainerRank is the SPMD body of one rank.
func runContainerRank(p *transport.Proc, c ContainerCase, model containerModel,
	rec *synch.Recorder, viol *[]string) error {
	me := p.Rank()
	world := p.WorldSize()
	part := container.HashPartitioner{}
	fail := func(format string, args ...any) {
		if len(*viol) < 12 {
			*viol = append(*viol, fmt.Sprintf("rank %d: ", me)+fmt.Sprintf(format, args...))
		}
	}

	eng := container.NewEngine(p, ygm.WithCapacity(c.Capacity), ygm.WithExchange(c.Variant))
	m := container.NewMap(eng, nil)
	cnt := container.NewCounter(eng, nil)

	mustIdent := func(r *codec.Reader) msgKey {
		k, err := decodeIdent(r)
		if err != nil {
			panic(fmt.Sprintf("simtest: rank %d: corrupt container visitor arg: %v", me, err))
		}
		return k
	}
	vPut := m.RegisterVisitor(func(m *container.Map, key, arg []byte) {
		r := codec.NewReader(arg)
		k := mustIdent(r)
		rec.Recv(me, k.key64())
		val, err := r.Bytes0()
		if err != nil {
			panic(fmt.Sprintf("simtest: rank %d: corrupt put arg: %v", me, err))
		}
		m.LocalPut(key, val)
	})
	vErase := m.RegisterVisitor(func(m *container.Map, key, arg []byte) {
		rec.Recv(me, mustIdent(codec.NewReader(arg)).key64())
		m.LocalErase(key)
	})
	// vBump accumulates on the owner and, while ttl lasts, chains another
	// visit whose key and identity derive from this hop's identity — the
	// same walk buildContainerModel replays.
	var vBump uint64
	vBump = cnt.RegisterVisitor(func(cn *container.Counter, key, arg []byte) {
		r := codec.NewReader(arg)
		k := mustIdent(r)
		rec.Recv(me, k.key64())
		delta, err := r.Uvarint()
		if err != nil {
			panic(fmt.Sprintf("simtest: rank %d: corrupt bump arg: %v", me, err))
		}
		ttl, err := r.Byte()
		if err != nil {
			panic(fmt.Sprintf("simtest: rank %d: corrupt bump arg: %v", me, err))
		}
		cn.LocalAdd(key, delta)
		if ttl == 0 {
			return
		}
		child := spawnKey(me, k)
		nkey := ckeyBytes(int(spawnHash(child) % uint64(c.CKeys)))
		rec.Spawn(me, child.key64(), cn.Owner(nkey), k.key64())
		w := codec.NewWriter(24)
		encodeIdent(w, child)
		w.Uvarint(delta)
		w.Byte(ttl - 1)
		cn.AsyncVisit(vBump, nkey, w.Bytes())
	})
	fGet := m.RegisterFetcher(func(m *container.Map, key, arg []byte, reply *codec.Writer) {
		rec.Recv(me, mustIdent(codec.NewReader(arg)).key64())
		val, ok := m.LocalGet(key)
		if !ok {
			reply.Byte(0)
			return
		}
		reply.Byte(1)
		reply.Bytes0(val)
	})

	script := genContainerScript(c, me)
	for ph, ops := range script {
		for _, op := range ops {
			switch op.kind {
			case copPut:
				key := mkeyBytes(me, op.slot)
				k := msgKey{origin: me, seq: op.seq}
				rec.Send(me, k.key64(), m.Owner(key))
				w := codec.NewWriter(32)
				encodeIdent(w, k)
				w.Bytes0(mvalBytes(me, op.slot, op.val))
				m.AsyncVisit(vPut, key, w.Bytes())
			case copRawPut:
				m.AsyncInsert(mkeyBytes(me, op.slot), mvalBytes(me, op.slot, op.val))
			case copErase:
				key := mkeyBytes(me, op.slot)
				k := msgKey{origin: me, seq: op.seq}
				rec.Send(me, k.key64(), m.Owner(key))
				w := codec.NewWriter(16)
				encodeIdent(w, k)
				m.AsyncVisit(vErase, key, w.Bytes())
			case copRawErase:
				m.AsyncErase(mkeyBytes(me, op.slot))
			case copBump:
				key := ckeyBytes(op.slot)
				k := msgKey{origin: me, seq: op.seq}
				rec.Send(me, k.key64(), cnt.Owner(key))
				w := codec.NewWriter(24)
				encodeIdent(w, k)
				w.Uvarint(1 + op.val%5)
				w.Byte(byte(op.ttl))
				cnt.AsyncVisit(vBump, key, w.Bytes())
			case copRawBump:
				cnt.AsyncAdd(ckeyBytes(op.slot), 1+op.val%5)
			case copFetch:
				key := mkeyBytes(me, op.slot)
				k := msgKey{origin: me, seq: op.seq}
				rec.Send(me, k.key64(), m.Owner(key))
				w := codec.NewWriter(16)
				encodeIdent(w, k)
				op := op // capture this op's expectation
				m.AsyncVisitFetch(fGet, key, w.Bytes(), func(reply []byte) {
					r := codec.NewReader(reply)
					present, err := r.Byte()
					if err != nil {
						fail("fetch %s: corrupt reply: %v", k, err)
						return
					}
					if (present == 1) != op.expectPresent {
						fail("fetch %s of slot %d: present=%v, want %v",
							k, op.slot, present == 1, op.expectPresent)
						return
					}
					if present == 0 {
						return
					}
					val, err := r.Bytes0()
					if err != nil {
						fail("fetch %s: corrupt reply value: %v", k, err)
						return
					}
					if !bytes.Equal(val, op.expectVal) {
						fail("fetch %s of slot %d: value %q, want %q (read-your-writes violated)",
							k, op.slot, val, op.expectVal)
					}
				})
			}
		}
		eng.Barrier()
		rec.Barrier(me, uint64(ph))
	}

	// Final-state validation against the sequential model: every local
	// entry must match the model and live on its partitioner-assigned
	// owner (no extras), every model entry owned here must be present (no
	// holes), and the collective sizes and TopK must agree globally.
	localMap := 0
	m.ForAll(func(key string, val []byte) {
		localMap++
		if own := part.Owner([]byte(key), world); own != me {
			fail("map key %q stored on rank %d, owner is %d", key, me, own)
		}
		want, ok := model.mapVals[key]
		switch {
		case !ok:
			fail("map key %q exists but the model erased or never wrote it", key)
		case !bytes.Equal(val, want):
			fail("map key %q = %q, model has %q", key, val, want)
		}
	})
	for key, want := range model.mapVals {
		if part.Owner([]byte(key), world) != me {
			continue
		}
		if got, ok := m.LocalGet([]byte(key)); !ok {
			fail("map key %q missing from its owner shard", key)
		} else if !bytes.Equal(got, want) {
			fail("map key %q = %q, model has %q", key, got, want)
		}
	}
	if got, want := m.Size(), uint64(len(model.mapVals)); got != want {
		fail("map size %d, model has %d keys", got, want)
	}
	localCnt := 0
	cnt.ForAll(func(key string, count uint64) {
		localCnt++
		if own := part.Owner([]byte(key), world); own != me {
			fail("counter key %q stored on rank %d, owner is %d", key, me, own)
		}
		if want := model.counts[key]; count != want {
			fail("counter key %q = %d, model has %d", key, count, want)
		}
	})
	for key := range model.counts {
		if part.Owner([]byte(key), world) != me {
			continue
		}
		if cnt.LocalCount([]byte(key)) == 0 {
			fail("counter key %q missing from its owner shard", key)
		}
	}
	if got, want := cnt.Size(), uint64(len(model.counts)); got != want {
		fail("counter size %d, model has %d keys", got, want)
	}
	wantTop := modelTopK(model.counts, 3)
	gotTop := cnt.TopK(3)
	if len(gotTop) != len(wantTop) {
		fail("TopK returned %d entries, model has %d", len(gotTop), len(wantTop))
	} else {
		for i := range wantTop {
			if gotTop[i] != wantTop[i] {
				fail("TopK[%d] = %v, model has %v", i, gotTop[i], wantTop[i])
			}
		}
	}
	return nil
}

// modelTopK is the sequential reference for Counter.TopK.
func modelTopK(counts map[string]uint64, k int) []container.KeyCount {
	all := make([]container.KeyCount, 0, len(counts))
	for key, n := range counts {
		all = append(all, container.KeyCount{Key: key, Count: n})
	}
	return trimModelTopK(all, k)
}

func trimModelTopK(kc []container.KeyCount, k int) []container.KeyCount {
	// Same order as container.trimTopK: count descending, key ascending.
	for i := 1; i < len(kc); i++ {
		for j := i; j > 0; j-- {
			a, b := kc[j-1], kc[j]
			if a.Count > b.Count || (a.Count == b.Count && a.Key < b.Key) {
				break
			}
			kc[j-1], kc[j] = b, a
		}
	}
	if len(kc) > k {
		kc = kc[:k]
	}
	return kc
}
