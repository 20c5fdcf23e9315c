package transport

// Hooks for the external tests of the TCP send queue. Both ranks of
// those tests live in one process, so a test body can reach into its own
// rank's world.

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
