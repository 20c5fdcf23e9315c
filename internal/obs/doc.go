// Package obs is the virtual-time observability substrate of the YGM
// reproduction: typed per-rank metrics (counters and gauges)
// with mid-run snapshots that merge across ranks, and a fixed-size
// flight recorder — a ring buffer of the most recent transport and
// mailbox events — that deadlock and panic reports dump so failures
// show what led to the hang, not just the final state.
//
// Everything in this package is confined to one rank's goroutine: a
// Registry or Recorder is owned by the rank that writes it, snapshots
// are taken on that goroutine, and cross-rank aggregation happens only
// after the run joins (see transport.Report). None of the write paths
// allocate once the registry has been populated, so the instrumentation
// can sit on the exchange hot path without breaking its zero-allocation
// contract.
package obs
