// Package transport is the point-to-point message substrate YGM runs on —
// the role MPI plays for the original C++ implementation. Each rank of the
// simulated cluster executes as a goroutine running the same SPMD body.
// Ranks exchange packets through per-rank inboxes and carry virtual clocks
// (see internal/netsim) so that experiments report simulated communication
// time for the modeled machine rather than wall time on the host.
//
// Packets carry a virtual arrival time computed from the netsim cost
// model. A receiver that polls sees only packets whose arrival time has
// passed its own clock; a receiver that blocks fast-forwards its clock to
// the packet's arrival, accumulating wait (idle) time. This is
// direct-execution simulation: cross-rank processing order is driven by
// virtual arrival among physically present packets, an approximation that
// preserves aggregate time and utilization shape.
package transport

import "ygm/internal/machine"

// Tag separates logical message streams sharing one inbox (mailbox data
// vs. collective rounds vs. termination detection).
type Tag uint64

const (
	// TagData and TagDataOdd carry YGM lazy-mailbox traffic: the mailbox
	// sends on TagData in even quiescence epochs and on TagDataOdd in odd
	// ones, so data of the next phase waits under the other tag.
	TagData    Tag = 1
	TagDataOdd Tag = 3
	// TagUser is the first tag value free for application use. Tags at
	// or above TagCollective are reserved for internal/collective.
	TagUser Tag = 16
	// TagCollective marks the start of the collective-operation tag
	// space; see internal/collective for how tags are derived.
	TagCollective Tag = 1 << 32
)

// Packet is one transport-level message. Its payload belongs to the
// transport's pool: the sender hands it over with SendPooled and must not
// retain or mutate it afterwards, and the receiver may read it only until
// Recycle takes packet and payload back.
type Packet struct {
	Src     machine.Rank
	Tag     Tag
	Arrive  float64 // virtual arrival time at the destination, seconds
	Payload []byte

	// next links the packet into the destination inbox's stack between
	// Inbox.Push and the absorb pass that takes it; nil at all other
	// times, so a delivered or pooled packet retains no chain.
	next *Packet

	// seq is the packet's position in the destination inbox's absorb
	// order, which extends its src→dst channel's push order. It breaks
	// arrival-time ties between packets of one Src. In ygmcheck builds
	// Push first stamps the channel sequence here for absorb to audit.
	seq uint64
}

// Size returns the payload size in bytes.
func (p *Packet) Size() int { return len(p.Payload) }
