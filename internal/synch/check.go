package synch

import "fmt"

// Certificate is a synchronous round schedule witnessing that a run is
// reorder-equivalent to round-based execution: every message is sent
// and received in its assigned round, rounds increase strictly along
// every causal (spawn) chain and across every barrier, rounds never
// decrease along application program order or along a FIFO channel, and
// every message's round falls inside its phase window — at or before
// the barrier closing the phase its root application send belongs to.
// ValidateCertificate re-checks all of that against the raw log by an
// independent rule walk.
type Certificate struct {
	// Rounds is the number of exchange phases (max assigned round + 1).
	Rounds int
	// Phase assigns each message instance its round.
	Phase map[MsgRef]int
	// Barrier assigns each global barrier id the round it closes: every
	// message whose phase window ends at this barrier has round <=
	// Barrier[id], and every event observed after the barrier returned
	// on a rank has round > Barrier[id].
	Barrier map[uint64]int
}

// Violation is the counterexample produced when a run is not
// synchronizable: either a same-channel FIFO inversion (Kind "fifo",
// the two swapped messages in Pair) or a minimal cycle of round
// constraints containing a strict edge (Kind "cycle", the messages in
// cycle order in Cycle).
type Violation struct {
	Kind   string
	Pair   [2]MsgRef
	Cycle  []MsgRef
	Detail string
}

func (v *Violation) String() string {
	if v == nil {
		return "<nil>"
	}
	switch v.Kind {
	case "fifo":
		return fmt.Sprintf("fifo violation: %v delivered before %v (%s)", v.Pair[0], v.Pair[1], v.Detail)
	default:
		return fmt.Sprintf("unsynchronizable cycle %v (%s)", v.Cycle, v.Detail)
	}
}

// Verdict is the checker's decision for one log.
type Verdict struct {
	OK        bool
	Cert      *Certificate
	Violation *Violation
	// Faults lists the log's breaches of the delivery contract, each
	// naming its message: a unicast not received exactly once at its
	// destination, a broadcast not received exactly once at every rank
	// but its origin, a receive with no send. They do not decide OK: a
	// receive that matches no instance is left out of the constraint
	// graph, and an undelivered send keeps its node.
	Faults []string
}

// Judge checks one run's log against the whole mailbox contract and
// returns the two verdicts separately: faults is Check's Faults, the
// delivery verdict; err is nil exactly when the run is synchronizable
// and its certificate, returned as cert, passes ValidateCertificate.
func Judge(l *Log) (faults []string, cert *Certificate, err error) {
	v := Check(l)
	if !v.OK {
		return v.Faults, nil, fmt.Errorf("synchronizability: %v", v.Violation)
	}
	if err := ValidateCertificate(l, v.Cert); err != nil {
		return v.Faults, nil, fmt.Errorf("synchronizability: certificate failed independent validation: %v", err)
	}
	return v.Faults, v.Cert, nil
}

// message is one resolved message instance: a node of the constraint
// graph. Broadcast copies are independent instances sharing the origin
// send position — a deliberate weakening (see DESIGN.md §12) that keeps
// multi-hop relay trees, whose copies genuinely land in different
// waves, out of the false-positive zone.
type message struct {
	ref     MsgRef
	origin  int32
	dst     int32 // receiving rank, -1 if undelivered
	unicast bool
	spawned bool
	parent  int // node of the spawning parent's delivered instance, -1
	chanSeq int // ordinal within the (origin,dst) unicast channel
	sendIdx int // index of the send event in origin's log
	rootBar int // dense index of the barrier closing the phase window, -1
}

// resolved is the shared message-resolution pass used by both Check and
// ValidateCertificate: it maps every event to a message-instance node
// without imposing any scheduling judgment.
type resolved struct {
	msgs []message
	// node[r][i] is the message node of rank r's i-th event, -1 for
	// barriers, broadcast sends, and unresolved events.
	node [][]int
	// barrier[r][i] is the dense barrier index of rank r's i-th event,
	// -1 otherwise.
	barrier [][]int
	// barrierIDs maps dense barrier index -> barrier id.
	barrierIDs []uint64
	// bcastCopies maps a broadcast send event position (rank, index) to
	// the copy nodes it fans out to.
	bcastCopies map[[2]int][]int
	// faults are the delivery-contract breaches (see Verdict.Faults).
	faults []string
}

func (r *resolved) fault(format string, args ...any) {
	r.faults = append(r.faults, fmt.Sprintf(format, args...))
}

// resolve builds message instances from a log. Unicast sends create one
// instance keyed by message key; broadcast sends create one instance
// per receiving rank other than the origin (discovered from the recv
// events). Duplicate, orphan and origin receives resolve to -1 and,
// with undelivered sends and missing broadcast copies, are recorded as
// faults. After resolution it links every
// spawned instance to its parent instance and assigns each instance the
// barrier closing its phase window: the first barrier following its
// root ancestor's application-level send on that root's rank.
func resolve(l *Log) *resolved {
	r := &resolved{
		node:        make([][]int, l.World),
		barrier:     make([][]int, l.World),
		bcastCopies: make(map[[2]int][]int),
	}
	type sendPos struct {
		rank, idx int
		bcast     bool
		node      int // unicast node, -1 for bcast
	}
	sends := make(map[uint64]sendPos)
	var bcasts [][2]int // broadcast send positions, in log order
	barIdx := make(map[uint64]int)

	// Pass 1: sends and barriers.
	for rank, evs := range l.Events {
		r.node[rank] = make([]int, len(evs))
		r.barrier[rank] = make([]int, len(evs))
		for i, ev := range evs {
			r.node[rank][i] = -1
			r.barrier[rank][i] = -1
			switch ev.Kind {
			case KindSend:
				n := len(r.msgs)
				r.msgs = append(r.msgs, message{
					ref:     MsgRef{Key: ev.Key, Copy: -1},
					origin:  int32(rank),
					dst:     -1,
					unicast: true,
					spawned: ev.Spawned,
					parent:  -1,
					sendIdx: i,
					rootBar: -1,
				})
				sends[ev.Key] = sendPos{rank: rank, idx: i, node: n}
				r.node[rank][i] = n
			case KindBcast:
				sends[ev.Key] = sendPos{rank: rank, idx: i, bcast: true, node: -1}
				bcasts = append(bcasts, [2]int{rank, i})
			case KindBarrier:
				bi, ok := barIdx[ev.Key]
				if !ok {
					bi = len(r.barrierIDs)
					barIdx[ev.Key] = bi
					r.barrierIDs = append(r.barrierIDs, ev.Key)
				}
				r.barrier[rank][i] = bi
			}
		}
	}

	// Pass 2: receives.
	inst := make(map[MsgRef]int)
	for rank, evs := range l.Events {
		for i, ev := range evs {
			if ev.Kind != KindRecv {
				continue
			}
			key := MsgRef{Key: ev.Key, Copy: -1}
			sp, ok := sends[ev.Key]
			if !ok {
				r.fault("message %v received at rank %d was never sent", key, rank)
				continue
			}
			if sp.bcast {
				ref := MsgRef{Key: ev.Key, Copy: int32(rank)}
				if rank == sp.rank {
					r.fault("broadcast %v received at its origin rank %d", key, rank)
					continue
				}
				if _, dup := inst[ref]; dup {
					r.fault("broadcast %v received twice at rank %d", key, rank)
					continue
				}
				n := len(r.msgs)
				r.msgs = append(r.msgs, message{
					ref:     ref,
					origin:  int32(sp.rank),
					dst:     int32(rank),
					spawned: l.Events[sp.rank][sp.idx].Spawned,
					parent:  -1,
					sendIdx: sp.idx,
					rootBar: -1,
				})
				inst[ref] = n
				r.node[rank][i] = n
				k := [2]int{sp.rank, sp.idx}
				r.bcastCopies[k] = append(r.bcastCopies[k], n)
			} else {
				if _, dup := inst[key]; dup {
					r.fault("unicast %v received again at rank %d", key, rank)
					continue
				}
				if dst := l.Events[sp.rank][sp.idx].Dst; dst != int32(rank) {
					r.fault("unicast %v addressed to rank %d received at rank %d", key, dst, rank)
				}
				inst[key] = sp.node
				r.msgs[sp.node].dst = int32(rank)
				r.node[rank][i] = sp.node
			}
		}
	}

	// Every rank but a broadcast's origin must hold one of its copies.
	for _, pos := range bcasts {
		copies := r.bcastCopies[pos]
		if len(copies) == l.World-1 {
			continue // one copy at every other rank
		}
		got := make([]bool, l.World)
		for _, n := range copies {
			got[r.msgs[n].dst] = true
		}
		for rank := range got {
			if rank != pos[0] && !got[rank] {
				r.fault("broadcast %v never received at rank %d",
					MsgRef{Key: l.Events[pos[0]][pos[1]].Key, Copy: -1}, rank)
			}
		}
	}

	// Pass 3: spawn parents. A spawned send's parent instance is the
	// copy of the parent key delivered at the spawning rank (broadcast
	// parents) or the unicast instance itself. Unresolvable parents —
	// the parent was never delivered at that rank, which the delivery
	// oracle reports separately — leave the child causally unanchored.
	for n := range r.msgs {
		m := &r.msgs[n]
		if !m.spawned {
			continue
		}
		ev := l.Events[m.origin][m.sendIdx]
		pref := MsgRef{Key: ev.Parent, Copy: -1}
		if psp, ok := sends[ev.Parent]; ok && psp.bcast {
			pref.Copy = m.origin
		}
		if pn, ok := inst[pref]; ok && r.msgs[pn].dst == m.origin {
			m.parent = pn
		}
	}

	// Pass 4: phase windows. nextBar[rank][i] is the dense index of the
	// first barrier event at or after position i on rank, -1 when the
	// rank records no further barrier. Application-level instances take
	// their own send position's next barrier; spawned instances inherit
	// their root ancestor's (a synthetic parent cycle, impossible in a
	// truthful log, falls back to the instance's own position).
	nextBar := make([][]int, l.World)
	for rank, evs := range l.Events {
		nextBar[rank] = make([]int, len(evs))
		nb := -1
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].Kind == KindBarrier {
				nb = r.barrier[rank][i]
			}
			nextBar[rank][i] = nb
		}
	}
	const (
		unresolved = 0
		resolving  = 1
		done       = 2
	)
	state := make([]uint8, len(r.msgs))
	var windowOf func(n int) int
	windowOf = func(n int) int {
		m := &r.msgs[n]
		if state[n] == done {
			return m.rootBar
		}
		own := nextBar[m.origin][m.sendIdx]
		if state[n] == resolving {
			return own // parent cycle: anchor at own position
		}
		state[n] = resolving
		if m.spawned && m.parent >= 0 {
			m.rootBar = windowOf(m.parent)
		} else {
			m.rootBar = own
		}
		state[n] = done
		return m.rootBar
	}
	for n := range r.msgs {
		windowOf(n)
	}

	// Channel ordinals for delivered and undelivered unicasts alike, in
	// per-origin program order (node creation order in pass 1 is exactly
	// per-rank send order). Undelivered sends keep dst -1 and land on a
	// channel of their own; they still occupy graph nodes so barrier
	// constraints from the sender side apply.
	chanSeq := make(map[[2]int32]int)
	for n := range r.msgs {
		m := &r.msgs[n]
		if !m.unicast {
			continue
		}
		if m.dst < 0 {
			r.fault("unicast %v to rank %d never received", m.ref, l.Events[m.origin][m.sendIdx].Dst)
		}
		k := [2]int32{m.origin, m.dst}
		m.chanSeq = chanSeq[k]
		chanSeq[k]++
	}
	return r
}

// edge is one round constraint: round(from) + w <= round(to), w in
// {0, 1}; barrier pseudo-nodes take indices >= len(msgs).
type edge struct {
	from, to int
	w        int8
}

// Check decides synchronizability of a recorded log and produces a
// certificate or a minimal counterexample. The decision procedure:
//
//  1. Same-channel FIFO: for every unicast channel (origin, dst), the
//     delivery order must equal the send order. The constraint graph
//     cannot see a same-round swap (equal assigned rounds), but such a
//     swap is always a real FIFO violation, so it is checked directly.
//  2. Constraint graph: one node per message instance plus one per
//     barrier, with exactly the orderings the mailbox contract
//     promises:
//     - application program order: consecutive application-level
//     (non-spawn) send events of one rank, weight 0;
//     - causality: a delivered message to each send its handler
//     issued, weight 1 (a handler reaction belongs to a strictly
//     later round), and consecutive spawns of the same handler
//     invocation, weight 0;
//     - channel FIFO: consecutive sends on one unicast channel,
//     weight 0 (synchronous delivery in FIFO order needs
//     non-decreasing rounds);
//     - phase windows: every instance to the barrier closing its
//     root's phase, weight 0 (quiescence: the whole spawn tree of a
//     phase settles before its barrier);
//     - barriers: the last barrier a rank returned from to every
//     subsequent send and receive on that rank and to the next
//     barrier, weight 1.
//     Receive order across channels contributes nothing (an exchange
//     round's receive set is unordered), and the raw interleaving of
//     deliveries with unrelated sends contributes nothing (lazy
//     mailboxes run handlers in the middle of the application's send
//     loop; see the package comment).
//  3. Tarjan SCC over the graph: a weight-1 edge inside a component is
//     an unsatisfiable strict cycle; the shortest such cycle is the
//     counterexample. Otherwise longest-path over the condensation in
//     topological order yields the round assignment.
func Check(l *Log) *Verdict {
	r := resolve(l)
	v := &Verdict{Faults: r.faults}

	if viol := checkFIFO(l, r); viol != nil {
		v.Violation = viol
		return v
	}

	nMsg := len(r.msgs)
	nBar := len(r.barrierIDs)
	n := nMsg + nBar
	var edges []edge

	var prevApp, nodes []int
	for rank, evs := range l.Events {
		prevApp = prevApp[:0]
		lastBar := -1
		lastSpawn := make(map[int]int) // parent node -> latest spawn node
		for i, ev := range evs {
			// One event maps to one node, except a broadcast send which
			// fans out to all its copy nodes at once.
			nodes = nodes[:0]
			switch ev.Kind {
			case KindSend, KindRecv:
				if nd := r.node[rank][i]; nd >= 0 {
					nodes = append(nodes, nd)
				}
			case KindBcast:
				nodes = append(nodes, r.bcastCopies[[2]int{rank, i}]...)
			case KindBarrier:
				bn := nMsg + r.barrier[rank][i]
				if lastBar >= 0 && lastBar != bn {
					edges = append(edges, edge{lastBar, bn, 1})
				}
				lastBar = bn
				continue
			}
			if len(nodes) == 0 {
				continue // orphan, duplicate, or undelivered broadcast
			}
			if lastBar >= 0 {
				// Anything observed after a barrier returned — the
				// application's next-phase sends, and deliveries (all
				// next-phase traffic, by quiescence) — is strictly later.
				for _, nd := range nodes {
					edges = append(edges, edge{lastBar, nd, 1})
				}
			}
			if ev.Kind == KindRecv {
				continue
			}
			// Send event: causal or program-order constraints, plus the
			// phase-window bound.
			spawned := ev.Spawned && r.msgs[nodes[0]].parent >= 0
			if spawned {
				pn := r.msgs[nodes[0]].parent
				for _, nd := range nodes {
					edges = append(edges, edge{pn, nd, 1})
					if ls, ok := lastSpawn[pn]; ok && ls != nd {
						edges = append(edges, edge{ls, nd, 0})
					}
				}
				lastSpawn[pn] = nodes[len(nodes)-1]
			} else {
				for _, p := range prevApp {
					for _, nd := range nodes {
						if p != nd {
							edges = append(edges, edge{p, nd, 0})
						}
					}
				}
				prevApp = append(prevApp[:0], nodes...)
			}
			for _, nd := range nodes {
				if rb := r.msgs[nd].rootBar; rb >= 0 {
					edges = append(edges, edge{nd, nMsg + rb, 0})
				}
			}
		}
	}

	// Channel FIFO edges: consecutive delivered unicasts per channel.
	chanLast := make(map[[2]int32]int)
	for nd := range r.msgs {
		m := &r.msgs[nd]
		if !m.unicast || m.dst < 0 {
			continue
		}
		ch := [2]int32{m.origin, m.dst}
		if p, ok := chanLast[ch]; ok {
			edges = append(edges, edge{p, nd, 0})
		}
		chanLast[ch] = nd
	}

	comp, nComp := tarjan(n, edges)

	// A strict edge inside one component closes an unsatisfiable cycle.
	for _, e := range edges {
		if e.w == 1 && comp[e.from] == comp[e.to] {
			v.Violation = minimalCycle(r, nMsg, edges, comp, e)
			return v
		}
	}

	// Longest path over the condensation. Tarjan numbers components in
	// reverse topological order (sinks first), so descending component
	// id is a topological order of the condensation.
	phi := make([]int, nComp)
	buckets := make([][]edge, nComp)
	for _, e := range edges {
		if comp[e.from] != comp[e.to] {
			buckets[comp[e.from]] = append(buckets[comp[e.from]], e)
		}
	}
	for c := nComp - 1; c >= 0; c-- {
		for _, e := range buckets[c] {
			if p := phi[c] + int(e.w); p > phi[comp[e.to]] {
				phi[comp[e.to]] = p
			}
		}
	}

	cert := &Certificate{
		Phase:   make(map[MsgRef]int, nMsg),
		Barrier: make(map[uint64]int, nBar),
	}
	for i := range r.msgs {
		p := phi[comp[i]]
		cert.Phase[r.msgs[i].ref] = p
		if p+1 > cert.Rounds {
			cert.Rounds = p + 1
		}
	}
	for b := 0; b < nBar; b++ {
		p := phi[comp[nMsg+b]]
		cert.Barrier[r.barrierIDs[b]] = p
		if p+1 > cert.Rounds {
			cert.Rounds = p + 1
		}
	}
	v.OK = true
	v.Cert = cert
	return v
}

// checkFIFO verifies that every unicast channel's delivery order equals
// its send order. Broadcast copies are excluded: a broadcast and a
// unicast to the same destination take different routes and carry no
// mutual ordering guarantee.
func checkFIFO(l *Log, r *resolved) *Violation {
	last := make(map[[2]int32]int) // channel -> 1 + chanSeq of last delivered
	for rank, evs := range l.Events {
		for i, ev := range evs {
			if ev.Kind != KindRecv {
				continue
			}
			nd := r.node[rank][i]
			if nd < 0 || !r.msgs[nd].unicast {
				continue
			}
			m := &r.msgs[nd]
			ch := [2]int32{m.origin, m.dst}
			if prev := last[ch] - 1; last[ch] > 0 && m.chanSeq <= prev {
				var overtaken MsgRef
				for j := range r.msgs {
					o := &r.msgs[j]
					if o.unicast && o.origin == m.origin && o.dst == m.dst && o.chanSeq == prev {
						overtaken = o.ref
						break
					}
				}
				return &Violation{
					Kind: "fifo",
					Pair: [2]MsgRef{m.ref, overtaken},
					Detail: fmt.Sprintf("channel %d->%d delivered seq %d after seq %d",
						m.origin, m.dst, m.chanSeq, prev),
				}
			}
			last[ch] = m.chanSeq + 1
		}
	}
	return nil
}

// tarjan computes strongly connected components iteratively (the logs
// can be long, so no recursion) and returns comp[node] plus the
// component count. Components are numbered in reverse topological
// order: every edge leaving a component points to a lower-numbered one.
func tarjan(n int, edges []edge) ([]int, int) {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], int32(e.to))
	}
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int32
	var next int32
	nComp := 0

	type frame struct {
		v  int32
		ei int
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp, nComp
}

// minimalCycle extracts the shortest constraint cycle through a strict
// edge inside one SCC: BFS from the strict edge's head back to its tail
// using only intra-component edges, then report the message nodes along
// the closed walk in cycle order.
func minimalCycle(r *resolved, nMsg int, edges []edge, comp []int, strict edge) *Violation {
	c := comp[strict.from]
	adj := make(map[int][]int)
	for _, e := range edges {
		if comp[e.from] == c && comp[e.to] == c {
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	parent := map[int]int{strict.to: -1}
	var path []int
	if strict.from == strict.to {
		path = []int{strict.to}
	} else {
		queue := []int{strict.to}
		found := false
		for len(queue) > 0 && !found {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if _, ok := parent[w]; ok {
					continue
				}
				parent[w] = v
				if w == strict.from {
					found = true
					break
				}
				queue = append(queue, w)
			}
		}
		if found {
			for v := strict.from; v != -1; v = parent[v] {
				path = append(path, v)
			}
			// path is from..to; reverse into cycle order to..from, the
			// order the strict edge's round inequality is contradicted.
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
		} else {
			// SCC membership guarantees a path exists; defensive only.
			path = []int{strict.to, strict.from}
		}
	}
	viol := &Violation{Kind: "cycle"}
	barriers := 0
	for _, nd := range path {
		if nd < nMsg {
			viol.Cycle = append(viol.Cycle, r.msgs[nd].ref)
		} else {
			barriers++
		}
	}
	if len(viol.Cycle) >= 2 {
		viol.Pair = [2]MsgRef{viol.Cycle[0], viol.Cycle[len(viol.Cycle)-1]}
	} else if len(viol.Cycle) == 1 {
		viol.Pair = [2]MsgRef{viol.Cycle[0], viol.Cycle[0]}
	}
	viol.Detail = fmt.Sprintf("%d-node cycle with a strict (later-round) edge", len(path))
	if barriers > 0 {
		viol.Detail += fmt.Sprintf(", crossing %d barrier(s)", barriers)
	}
	return viol
}
