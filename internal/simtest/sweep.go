package simtest

import (
	"fmt"

	"ygm/internal/machine"
)

// SynchCell is one cell of the synchronizability sweep: a topology
// shape x routing scheme x mailbox variant combination with the
// per-verdict tallies of its seeded runs.
type SynchCell struct {
	Topo    string `json:"topo"`
	Scheme  string `json:"scheme"`
	Variant string `json:"variant"`
	// Runs = Synchronizable + Violations + RuntimeFailures.
	Runs            int `json:"runs"`
	Synchronizable  int `json:"synchronizable"`
	Violations      int `json:"violations"`
	RuntimeFailures int `json:"runtime_failures,omitempty"`
	// DeliveryFailures counts runs the exactly-once oracle rejected
	// (independent of the synchronizability verdict).
	DeliveryFailures int `json:"delivery_failures,omitempty"`
	// MaxRounds is the largest certified round schedule seen in the cell.
	MaxRounds int `json:"max_rounds"`
	// FirstViolation is the repro string and verdict of the cell's first
	// synchronizability violation, empty when all runs certified.
	FirstViolation string `json:"first_violation,omitempty"`
}

// SynchSummary aggregates a whole sweep; cmd/ygm-bench serializes it as
// the nightly per-shape synchronizability artifact.
type SynchSummary struct {
	SeedsPerCell     int         `json:"seeds_per_cell"`
	Runs             int         `json:"runs"`
	Synchronizable   int         `json:"synchronizable"`
	Violations       int         `json:"violations"`
	RuntimeFailures  int         `json:"runtime_failures,omitempty"`
	DeliveryFailures int         `json:"delivery_failures,omitempty"`
	Cells            []SynchCell `json:"cells"`
}

// SweepSynch runs the synchronizability oracle across every topology
// shape x routing scheme x mailbox variant cell, seedsPerCell seeded
// clean workloads each, and tallies the verdicts. Every certificate a
// run produces has already passed independent validation inside
// RunCaseOutcome, so Synchronizable counts machine-checked rounds, not
// checker say-so.
func SweepSynch(seedsPerCell int, base int64) SynchSummary {
	sum := SynchSummary{SeedsPerCell: seedsPerCell}
	for _, shape := range topoShapes {
		for _, scheme := range machine.Schemes {
			for _, variant := range variants {
				cell := SynchCell{
					Topo:    fmt.Sprintf("%dx%d", shape[0], shape[1]),
					Scheme:  scheme.String(),
					Variant: variant.String(),
				}
				for s := 0; s < seedsPerCell; s++ {
					c := FromSeed(base + int64(s))
					c.Nodes, c.Cores = shape[0], shape[1]
					c.Scheme, c.Variant = scheme, variant
					out := RunCaseOutcome(c)
					cell.Runs++
					if out.Runtime != nil {
						cell.RuntimeFailures++
						continue
					}
					if out.Delivery != nil {
						cell.DeliveryFailures++
					}
					if out.Synch != nil {
						cell.Violations++
						if cell.FirstViolation == "" {
							cell.FirstViolation = fmt.Sprintf("%s: %v", c, out.Synch)
						}
						continue
					}
					cell.Synchronizable++
					if out.Cert.Rounds > cell.MaxRounds {
						cell.MaxRounds = out.Cert.Rounds
					}
				}
				sum.Runs += cell.Runs
				sum.Synchronizable += cell.Synchronizable
				sum.Violations += cell.Violations
				sum.RuntimeFailures += cell.RuntimeFailures
				sum.DeliveryFailures += cell.DeliveryFailures
				sum.Cells = append(sum.Cells, cell)
			}
		}
	}
	return sum
}
