// Package netsim provides the network cost model that stands in for the
// Omni-Path interconnect and node shared memory of the paper's Quartz
// testbed. Ranks in this reproduction run as goroutines on one host, so
// experiments measure *simulated* time: every rank carries a virtual
// clock, and netsim converts message sizes into virtual send, transfer,
// and receive costs.
//
// The remote model is LogGP-like — a fixed per-message latency plus a
// size-dependent bandwidth term — with the eager/rendezvous protocol
// switch at 16 KiB that produces the characteristic downward bandwidth
// jump of Fig. 5. The local model is a cheaper shared-memory memcpy.
package netsim

import "fmt"

// EagerThreshold is the message size, in bytes, at which MPI
// implementations typically switch from the eager to the rendezvous
// protocol; Fig. 5 shows the resulting bandwidth drop at 16 KiB.
const EagerThreshold = 16 * 1024

// Model holds the cost parameters of the simulated machine. All times are
// in seconds, all rates in bytes per second. The zero value is unusable;
// start from Quartz() and adjust.
type Model struct {
	// SendOverhead is the CPU time a rank spends issuing one send
	// (buffer handoff, header construction). Charged to the sender for
	// both local and remote messages.
	SendOverhead float64
	// RecvOverhead is the CPU time a rank spends receiving one message.
	RecvOverhead float64

	// RemoteLatency is the wire latency per remote message (LogGP L+o).
	RemoteLatency float64
	// RendezvousLatency is the extra handshake round-trip paid by remote
	// messages larger than EagerThreshold.
	RendezvousLatency float64
	// WireBandwidth is the asymptotic link bandwidth for rendezvous
	// (zero-copy) transfers.
	WireBandwidth float64
	// EagerBandwidth is the effective bandwidth of the eager protocol;
	// lower than WireBandwidth because eager sends pay an extra copy.
	EagerBandwidth float64

	// LocalLatency is the per-message cost of a shared-memory transfer
	// between two cores on the same node.
	LocalLatency float64
	// LocalBandwidth is the shared-memory copy bandwidth.
	LocalBandwidth float64
	// ZeroCopyLocal models the hybrid MPI+threads design of Section VII:
	// local transfers hand over a pointer and pay only LocalLatency,
	// skipping the per-byte copy. Off by default, matching the paper's
	// MPI-only implementation that copies on every on-node hop.
	ZeroCopyLocal bool

	// ComputePerMessage is the application CPU cost charged per message
	// handled by a callback; apps may add their own compute on top.
	ComputePerMessage float64
	// RecordOverhead is the fixed CPU cost of handling one coalesced
	// record at an intermediary or receiver (decode, dispatch, buffer
	// append) — a few nanoseconds, on top of the per-byte copy charged
	// via LocalBandwidth. This is the cost coalescing *cannot* amortize,
	// in contrast to the per-packet Send/RecvOverhead it can.
	RecordOverhead float64
}

// Quartz returns a model loosely calibrated to the paper's testbed: LLNL
// Quartz, MVAPICH 2.3 over Omni-Path (Fig. 5: ~1-2us latency, peak near
// 10 GB/s, eager/rendezvous switch at 16 KiB), with DDR4 shared memory.
// Absolute constants are not meant to match the testbed byte-for-byte;
// the experiments depend on the *shape* (alpha vs beta ratio and the
// eager/rendezvous discontinuity).
func Quartz() Model {
	return Model{
		SendOverhead:      500e-9,
		RecvOverhead:      500e-9,
		RemoteLatency:     1.2e-6,
		RendezvousLatency: 15e-6,
		WireBandwidth:     11e9,
		EagerBandwidth:    6e9,
		LocalLatency:      400e-9,
		LocalBandwidth:    24e9,
		ComputePerMessage: 10e-9,
		RecordOverhead:    2e-9,
	}
}

// RecordHandlingTime returns the CPU cost of processing one record of
// the given payload size out of a coalesced packet: the fixed dispatch
// overhead plus the copy at memory bandwidth.
func (m Model) RecordHandlingTime(bytes int) float64 {
	return m.RecordOverhead + float64(bytes)/m.LocalBandwidth
}

// Validate reports a descriptive error if any parameter would make the
// model produce non-positive or non-finite costs.
func (m Model) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v != v {
			return fmt.Errorf("netsim: %s = %v must be >= 0 and finite", name, v)
		}
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"SendOverhead", m.SendOverhead},
		{"RecvOverhead", m.RecvOverhead},
		{"RemoteLatency", m.RemoteLatency},
		{"RendezvousLatency", m.RendezvousLatency},
		{"LocalLatency", m.LocalLatency},
		{"ComputePerMessage", m.ComputePerMessage},
		{"RecordOverhead", m.RecordOverhead},
	} {
		if err := check(p.name, p.v); err != nil {
			return err
		}
	}
	if m.WireBandwidth <= 0 || m.EagerBandwidth <= 0 || m.LocalBandwidth <= 0 {
		return fmt.Errorf("netsim: bandwidths must be positive (wire=%v eager=%v local=%v)",
			m.WireBandwidth, m.EagerBandwidth, m.LocalBandwidth)
	}
	return nil
}

// RemoteTransferTime returns the end-to-end virtual time for a remote
// message of the given size: latency plus the size over the
// protocol-dependent bandwidth. Messages at or below EagerThreshold use
// the eager protocol; larger ones pay the rendezvous handshake but enjoy
// the higher zero-copy wire bandwidth.
func (m Model) RemoteTransferTime(bytes int) float64 {
	if bytes < 0 {
		panic("netsim: negative message size")
	}
	if bytes <= EagerThreshold {
		return m.RemoteLatency + float64(bytes)/m.EagerBandwidth
	}
	return m.RemoteLatency + m.RendezvousLatency + float64(bytes)/m.WireBandwidth
}

// LocalTransferTime returns the virtual time for a shared-memory message
// between two cores of one node.
func (m Model) LocalTransferTime(bytes int) float64 {
	if bytes < 0 {
		panic("netsim: negative message size")
	}
	if m.ZeroCopyLocal {
		return m.LocalLatency
	}
	return m.LocalLatency + float64(bytes)/m.LocalBandwidth
}

// zeroCopyOverheadFactor scales per-message send/receive CPU overheads
// for on-node transfers under the Section VII hybrid (MPI+threads)
// model: handing a pointer between threads costs a fraction of an MPI
// shared-memory send.
const zeroCopyOverheadFactor = 0.2

// SendOverheadFor returns the per-message send CPU cost for a transfer
// of the given locality.
func (m Model) SendOverheadFor(local bool) float64 {
	if local && m.ZeroCopyLocal {
		return m.SendOverhead * zeroCopyOverheadFactor
	}
	return m.SendOverhead
}

// RecvOverheadFor returns the per-message receive CPU cost for a
// transfer of the given locality.
func (m Model) RecvOverheadFor(local bool) float64 {
	if local && m.ZeroCopyLocal {
		return m.RecvOverhead * zeroCopyOverheadFactor
	}
	return m.RecvOverhead
}

// EffectiveBandwidth returns the achieved remote bandwidth, in bytes per
// second, for a single message of the given size — the quantity plotted
// on the y-axis of Fig. 5.
func (m Model) EffectiveBandwidth(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.RemoteTransferTime(bytes)
}

// Clock is a per-rank virtual clock. Ranks advance it with compute and
// communication costs; receivers fast-forward to message arrival times.
type Clock struct {
	now  float64
	busy float64
	wait float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Busy returns the accumulated time spent computing or in send/receive
// overheads (the numerator of core utilization).
func (c *Clock) Busy() float64 { return c.busy }

// Wait returns the accumulated time spent fast-forwarded past — i.e.
// idle, waiting on message arrivals or barrier partners.
func (c *Clock) Wait() float64 { return c.wait }

// Advance moves the clock forward by d seconds of useful work.
// It panics on negative d: virtual time never runs backwards.
func (c *Clock) Advance(d float64) {
	if d < 0 {
		panic("netsim: negative clock advance")
	}
	c.now += d
	c.busy += d
}

// AbsorbAt performs the receive-side clock update for a message that
// arrived at virtual time t and costs overhead seconds to receive:
// fast-forward to t when it lies in the future (accounting the skipped
// interval as wait time), then advance by overhead (busy time). It
// returns the skipped interval — 0 when the message had already
// arrived — which is the "jump" the transport's diagnostics report.
func (c *Clock) AbsorbAt(t, overhead float64) (jump float64) {
	if t > c.now {
		jump = t - c.now
		c.wait += jump
		c.now = t
	}
	if overhead < 0 {
		panic("netsim: negative clock advance")
	}
	c.now += overhead
	c.busy += overhead
	return jump
}

// Utilization returns busy / now, the fraction of elapsed virtual time
// this rank spent doing useful work. Returns 1 for a clock that never
// moved.
func (c *Clock) Utilization() float64 {
	if c.now == 0 {
		return 1
	}
	return c.busy / c.now
}
