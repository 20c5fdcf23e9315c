package machine

import "sort"

// Router is a per-(scheme, rank) next-hop table: NextHop's routing
// arithmetic evaluated once per destination at construction, so that
// steady-state routing is a single indexed load. Mailboxes build one
// Router per rank at startup and consult it on every queued message.
type Router struct {
	next []Rank
}

// NewRouter precomputes the next hop from cur to every destination rank
// under scheme s.
func (t Topology) NewRouter(s Scheme, cur Rank) *Router {
	next := make([]Rank, t.WorldSize())
	for d := range next {
		next[d] = t.NextHop(s, cur, Rank(d))
	}
	return &Router{next: next}
}

// Next returns the next hop toward dst. It is equivalent to
// Topology.NextHop for the scheme and rank the Router was built for.
func (r *Router) Next(dst Rank) Rank { return r.next[dst] }

// HopPartners returns every rank that r can ever transmit a packet to
// under scheme s, in ascending order: its same-node peers plus the
// RemotePartners channel set (for NoRoute, simply every other rank).
// This is the dense slot universe a coalescing mailbox needs — both
// unicast forwarding (every NextHop output) and broadcast fan-out stay
// within this set.
func (t Topology) HopPartners(s Scheme, r Rank) []Rank {
	if s == NoRoute {
		out := make([]Rank, 0, t.WorldSize()-1)
		for q := Rank(0); int(q) < t.WorldSize(); q++ {
			if q != r {
				out = append(out, q)
			}
		}
		return out
	}
	out := t.RemotePartners(s, r)
	for _, q := range t.LocalRanks(r) {
		if q != r {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
