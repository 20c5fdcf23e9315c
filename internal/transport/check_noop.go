//go:build !ygmcheck

package transport

import "ygm/internal/machine"

// ygmcheckEnabled reports whether the runtime invariant layer is compiled
// in. This is the default build: all checks compile to no-ops.
const ygmcheckEnabled = false

func checkf(bool, string, ...any) {}

func (ib *Inbox) verify(Tag) {}

// inboxCheck is the ygmcheck channel audit state; empty by default.
type inboxCheck struct{}

func (ib *Inbox) checkPush(*Packet) {}

func (ib *Inbox) checkAbsorbed(*Packet) {}

func (p *Proc) checkClockMonotone() {}

func poisonPayload([]byte) {}

func (s *scheduler) checkSchedEnqueue(machine.Rank) {}

func (s *scheduler) checkSchedDequeue(machine.Rank) {}

func (s *scheduler) checkSchedTokens() {}

func (ib *Inbox) checkReadyFoundWaiting(bool) {}

func countHostRead() {}

func hostClockReads() uint64 { return 0 }
