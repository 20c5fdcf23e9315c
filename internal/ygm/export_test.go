package ygm

import (
	"sort"

	"ygm/internal/machine"
)

// Scheme returns the routing scheme in use.
func (mb *Mailbox) Scheme() machine.Scheme { return mb.opts.Scheme }

// sortedHops returns the hop ranks currently holding queued records, in
// ascending order.
func (mb *Mailbox) sortedHops() []machine.Rank {
	hops := make([]machine.Rank, 0, len(mb.active))
	for _, b := range mb.active {
		hops = append(hops, b.hop)
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	return hops
}
