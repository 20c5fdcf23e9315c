package transport

// Stats accumulates one rank's traffic counters. Only the owning rank
// mutates its Stats; aggregation happens after Run returns.
type Stats struct {
	// LocalMsgs / LocalBytes count packets whose endpoints share a node.
	LocalMsgs  uint64
	LocalBytes uint64
	// RemoteMsgs / RemoteBytes count packets that cross the wire.
	RemoteMsgs  uint64
	RemoteBytes uint64
	// Data* counters cover only TagData packets — the mailbox payload
	// traffic the paper's bandwidth analysis is about — excluding
	// collective and termination-detection control messages.
	DataLocalMsgs   uint64
	DataLocalBytes  uint64
	DataRemoteMsgs  uint64
	DataRemoteBytes uint64
	// RecvMsgs counts packets this rank received (any locality). A
	// whole-world run whose body returns cleanly ends with the ranks'
	// RecvMsgs summing to their LocalMsgs+RemoteMsgs; Run fails any
	// other with a PacketLossError.
	RecvMsgs uint64
	// Recycles counts packets this rank returned for reuse (Recycle).
	// Every received packet must be recycled exactly once, so a run
	// whose body returns cleanly ends with Recycles == RecvMsgs on every
	// rank; Run fails any other with a PacketLeakError.
	Recycles uint64
}

// isDataTag reports whether a packet carries mailbox payload traffic:
// the lazy mailbox's TagData stream, or a non-empty round-matched
// exchange message (empty round messages are protocol control — the
// "empty buffers" of Section IV-B — and excluded from payload-traffic
// statistics, though their overheads still cost simulated time).
func isDataTag(tag Tag, bytes int) bool {
	return tag == TagData || (tag >= TagRound && bytes > 0)
}

// TagRound mirrors ygm's round-exchange tag base (declared here to keep
// the transport free of an upward dependency).
const TagRound Tag = 1 << 63

// recordSend updates counters for one outgoing packet.
func (s *Stats) recordSend(tag Tag, bytes int, local bool) {
	if local {
		s.LocalMsgs++
		s.LocalBytes += uint64(bytes)
		if isDataTag(tag, bytes) {
			s.DataLocalMsgs++
			s.DataLocalBytes += uint64(bytes)
		}
	} else {
		s.RemoteMsgs++
		s.RemoteBytes += uint64(bytes)
		if isDataTag(tag, bytes) {
			s.DataRemoteMsgs++
			s.DataRemoteBytes += uint64(bytes)
		}
	}
}

// Totals aggregates traffic counters across ranks.
type Totals struct {
	LocalMsgs       uint64
	LocalBytes      uint64
	RemoteMsgs      uint64
	RemoteBytes     uint64
	DataLocalMsgs   uint64
	DataLocalBytes  uint64
	DataRemoteMsgs  uint64
	DataRemoteBytes uint64
}

// AvgDataRemoteMsgBytes returns the mean remote mailbox-packet size, the
// quantity the bandwidth-maximization analysis of Section III-E reasons
// about.
func (t Totals) AvgDataRemoteMsgBytes() float64 {
	if t.DataRemoteMsgs == 0 {
		return 0
	}
	return float64(t.DataRemoteBytes) / float64(t.DataRemoteMsgs)
}
