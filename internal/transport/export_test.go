package transport

import "ygm/internal/machine"

// Hooks for the external tests of the TCP wire and the clock budget.
// Both ranks of the TCP tests live in one process, so a test body can
// reach into its own rank's world.

// TCPVersion is the wire version a TCP preamble carries.
const TCPVersion = tcpVersion

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = raceEnabled

// StallPool holds the world's shared pool lock until release is called.
// A TCP reader takes that lock whenever its cache runs dry — at most
// poolBatch frames after the stall begins, since a reader only takes —
// so this stops the process reading its sockets: the peer's kernel
// buffers, then its send queue, fill up. The caller must not make its
// own cache refill or spill (AcquireBuf, Recycle beyond a few packets)
// while it holds the stall.
func StallPool(p *Proc) (release func()) {
	p.world.pool.mu.Lock()
	return p.world.pool.mu.Unlock
}

// FlushWire calls the wire's Flush as Run does when a body returns.
func FlushWire(p *Proc) { p.world.wire.Flush(p) }

// TCPSendIdle reports whether every TCP send queue of this process is
// empty with no batch inside a write.
func TCPSendIdle(p *Proc) bool {
	for _, peer := range p.world.wire.(*TCPWire).peers {
		if peer == nil {
			continue
		}
		peer.mu.Lock()
		idle := len(peer.pending) == 0 && !peer.writing
		peer.mu.Unlock()
		if !idle {
			return false
		}
	}
	return true
}

// QueueRaw appends b verbatim to this process's send queue toward dst,
// as if it were whole frames, so a test can feed dst's reader a crafted
// stream.
func QueueRaw(p *Proc, dst machine.Rank, b []byte) {
	peer := p.world.wire.(*TCPWire).peers[dst]
	peer.mu.Lock()
	peer.pending = append(peer.pending, b...)
	peer.mu.Unlock()
	peer.work.Signal()
}

// HostClockReads returns the host-clock readings counted in this
// process so far; a ygmcheck build counts them, a default build reports
// 0.
func HostClockReads() uint64 { return hostClockReads() }

// TimeParks gives a standalone inbox a real-time clock, as Run does for
// a real-time wire's ranks, so its parks are timed.
func TimeParks(ib *Inbox) { ib.rt = &rtClock{epoch: hostNow()} }
