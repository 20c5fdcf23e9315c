package simtest

import (
	"testing"

	"ygm/internal/ygm"
)

// baseContainerCase is the sweep's workload shape: a multi-node topology
// with a tight mailbox capacity (frequent exchanges), chained visits at
// the maximum recordable depth, and enough ops per phase that every op
// kind appears.
func baseContainerCase(seed int64, v ygm.ExchangeStyle, wire string) ContainerCase {
	return ContainerCase{
		Seed:     seed,
		Nodes:    3,
		Cores:    2,
		Variant:  v,
		Phases:   2,
		Ops:      14,
		Slots:    6,
		CKeys:    5,
		TTL:      2,
		Capacity: 4,
		Wire:     wire,
	}
}

// TestContainerWorkloads drives seeded random container scripts across
// all three mailbox variants on the simulated wire, checking every run
// against the container delivery model and the synchronizability oracle.
func TestContainerWorkloads(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 5; seed++ {
				c := baseContainerCase(seed, v, "sim")
				out := RunContainerCase(c)
				if err := out.Err(); err != nil {
					t.Fatalf("case %s: %v", c, err)
				}
				if !out.SynchChecked || out.Cert == nil {
					t.Fatalf("case %s: no synchronizability certificate", c)
				}
			}
		})
	}
}

// TestContainerWorkloadsLocalWire repeats a slice of the sweep on the
// in-process real-time wire: real goroutine preemption replaces the
// simulator's deterministic schedule, so delivery interleavings the
// virtual clock never produces are exercised under the same oracles.
func TestContainerWorkloadsLocalWire(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				c := baseContainerCase(seed, v, "local")
				if err := RunContainerCase(c).Err(); err != nil {
					t.Fatalf("case %s: %v", c, err)
				}
			}
		})
	}
}

// TestContainerOracleTeeth proves the model oracle actually bites:
// corrupting the ground truth in each dimension (a map value, a counter
// total, a phantom key) must surface as delivery violations.
func TestContainerOracleTeeth(t *testing.T) {
	c := baseContainerCase(1, ygm.LazyExchange, "sim")
	world := c.Nodes * c.Cores
	clean := RunContainerCase(c)
	if err := clean.Err(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	corrupt := buildContainerModel(c, world)
	if len(corrupt.mapVals) == 0 || len(corrupt.counts) == 0 {
		t.Fatalf("workload too small to corrupt: %d map keys, %d counter keys",
			len(corrupt.mapVals), len(corrupt.counts))
	}
	for k := range corrupt.mapVals {
		corrupt.mapVals[k] = []byte("wrong")
		break
	}
	for k := range corrupt.counts {
		corrupt.counts[k] += 17
		break
	}
	corrupt.mapVals["phantom-key"] = []byte("never written")
	out := runContainerChecked(c, corrupt)
	if out.Runtime != nil {
		t.Fatalf("corrupted-model run died at runtime: %v", out.Runtime)
	}
	if out.Delivery == nil {
		t.Fatal("model corrupted in three places, yet the oracle reported a clean run")
	}
	if out.Synch != nil {
		t.Fatalf("model corruption must not disturb the synchronizability verdict: %v", out.Synch)
	}
}

// TestContainerCaseValidation pins the guard rails of the deterministic
// spawn-key encoding.
func TestContainerCaseValidation(t *testing.T) {
	ok := baseContainerCase(1, ygm.LazyExchange, "sim")
	if err := ok.validate(); err != nil {
		t.Fatalf("base case invalid: %v", err)
	}
	over := ok
	over.Ops = 64
	over.Phases = 2 // 128 recorded ops per rank
	if over.validate() == nil {
		t.Fatal("op-count overflow of the spawn-key encoding accepted")
	}
	deep := ok
	deep.TTL = 3
	if deep.validate() == nil {
		t.Fatal("chain depth 3 accepted; keys would collide")
	}
	wide := ok
	wide.Nodes, wide.Cores = 43, 3 // 129 ranks
	if wide.validate() == nil {
		t.Fatal("129-rank world accepted; spawn keys would collide")
	}
	wire := ok
	wire.Wire = "tcp"
	if wire.validate() == nil {
		t.Fatal("container sweep accepted a wire it cannot host in-process")
	}
}
