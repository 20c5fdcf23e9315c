package simtest

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/ygm"
)

var (
	flagSeeds = flag.Int("seeds", 256, "number of random seeds TestSimFuzz explores (each seed runs every scheme x variant combination)")
	flagSeed  = flag.Int64("seed", -1, "run only this seed (all scheme x variant combinations)")
	flagCase  = flag.String("case", "", "run exactly one case, as printed by a shrunk failure repro")
	flagRetry = flag.Int("retries", 3, "confirmation attempts per shrink candidate")
)

// runAndReport runs one case; on failure it shrinks the case and fails
// the test with the single command that reproduces the minimized case.
func runAndReport(t *testing.T, c Case) {
	t.Helper()
	err := RunCase(c)
	if err == nil {
		return
	}
	small := Shrink(c, func(cand Case) bool { return StillFails(cand, *flagRetry) })
	smallErr := RunCase(small)
	t.Errorf("case %s failed:\n%v\n\nshrunk to %s (error: %v)\nreproduce: %s",
		c, err, small, smallErr, ReproCommand(small))
}

// combos enumerates every scheme x variant pair for one seed's workload.
func combos(seed int64) []Case {
	base := FromSeed(seed)
	out := make([]Case, 0, len(machine.Schemes)*len(variants))
	for _, s := range machine.Schemes {
		for _, v := range variants {
			c := base
			c.Scheme = s
			c.Variant = v
			out = append(out, c)
		}
	}
	return out
}

// TestSimFuzz is the schedule-exploration harness entry point: -seeds
// random workloads (default 256), each run under every routing scheme
// and mailbox variant, all checked by the delivery-semantics oracle.
//
// Reproduce a failure with the printed command, e.g.
//
//	go test ./internal/simtest -run 'TestSimFuzz$' -case='seed=7,topo=3x2,...'
func TestSimFuzz(t *testing.T) {
	if *flagCase != "" {
		c, err := ParseCase(*flagCase)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunCase(c); err != nil {
			t.Fatalf("case %s failed:\n%v", c, err)
		}
		return
	}
	seeds := *flagSeeds
	first := int64(0)
	if *flagSeed >= 0 {
		first, seeds = *flagSeed, 1
	}
	for seed := first; seed < first+int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, c := range combos(seed) {
				runAndReport(t, c)
			}
		})
	}
}

// mutationBudget is how many seeds the smoke test may consume hunting
// for each mutant; ISSUE requires detection within the default budget.
const mutationBudget = 24

// TestMutationSmoke proves the oracles have teeth: each deliberately
// broken build (wrong next-hop, dropped delivery, premature termination
// verdict, reordered or leaked delivery) must be detected — a non-nil
// RunCase error — within the seed budget. A mutant surviving every
// workload means the harness is vacuously green.
//
// The two ordering mutants additionally pin the synchronizability
// oracle's exclusive jurisdiction: on every workload tried, the run must
// stay clean at the runtime and delivery-semantics level (the
// exactly-once oracle is blind to pure reorderings by design), and
// detection must come from the Synch verdict alone.
func TestMutationSmoke(t *testing.T) {
	for _, m := range Mutants {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			detected, tried := 0, 0
			for seed := int64(0); seed < mutationBudget; seed++ {
				for _, c := range combos(seed) {
					if m == MutantPrematureTerm && c.Variant == ygm.SyncExchange {
						// The ALLTOALLV mailbox has no termination
						// detector to sabotage.
						continue
					}
					if m == MutantPhaseLeak && c.Variant == ygm.SyncExchange {
						// ExchangeUntilQuiet has no detection generation
						// after its last exchange: a leak claimed there is
						// released after the verdict, which the delivery
						// oracle rightly reports — not a pure reordering.
						continue
					}
					if m.OrderingMutant() {
						// The reorder and leak hooks live in the core's
						// decode and deliver paths, shared by every
						// variant. TTL=0 keeps the leaked release from
						// spawning new traffic after the quiescence
						// verdict; jitter off keeps the runs cheap and
						// reproducible.
						c.TTL = 0
						c.Jitter = false
					}
					c.Mutant = m
					tried++
					if m.OrderingMutant() {
						out := RunCaseOutcome(c)
						if out.Runtime != nil {
							t.Fatalf("ordering mutant %s broke case %s at the runtime level: %v", m, c, out.Runtime)
						}
						if out.Delivery != nil {
							t.Fatalf("ordering mutant %s is visible to the delivery oracle on %s — it is not a pure reordering: %v", m, c, out.Delivery)
						}
						if out.Synch != nil {
							detected++
						}
					} else if RunCase(c) != nil {
						detected++
					}
				}
				if detected > 0 {
					return
				}
			}
			t.Fatalf("mutant %s survived all %d workloads — the oracle is blind to it", m, tried)
		})
	}
}

// TestCrossValidateSync exercises the strongest synchronizability
// claim: for clean workloads, an actual synchronous (ALLTOALLV)
// execution of the lazy run's exact command script exists, and the two
// certificates agree on every message's application-phase window.
func TestCrossValidateSync(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 12; seed++ {
		base := FromSeed(seed)
		for _, s := range machine.Schemes {
			c := base
			c.Scheme = s
			if err := CrossValidateSync(c); err != nil {
				t.Fatalf("cross-validation failed for %s: %v", c, err)
			}
		}
	}
}

// TestCrossValidateSyncRejectsOrderingMutant checks the replay mode is
// not vacuous: a lazy run broken by an ordering mutant must fail
// cross-validation (via its own synchronizability verdict).
func TestCrossValidateSyncRejectsOrderingMutant(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < mutationBudget; seed++ {
		for _, s := range machine.Schemes {
			c := FromSeed(seed)
			c.Scheme = s
			c.Variant = ygm.LazyExchange
			c.TTL = 0
			c.Jitter = false
			c.Mutant = MutantReorderDelivery
			if err := CrossValidateSync(c); err != nil {
				if !strings.Contains(err.Error(), "lazy run failed") {
					t.Fatalf("cross-validation of %s failed outside the lazy run: %v", c, err)
				}
				return
			}
		}
	}
	t.Fatalf("no workload within the budget made cross-validation reject the reorder mutant")
}

// TestShrinkReorderRepro pins the shrinker on the new failure
// dimension: a synchronizability violation from the reorder mutant must
// minimize to a tiny command script (at most 4 sends per rank), so the
// printed repro is actually readable.
func TestShrinkReorderRepro(t *testing.T) {
	t.Parallel()
	var c Case
	found := false
	for seed := int64(0); seed < mutationBudget && !found; seed++ {
		for _, s := range machine.Schemes {
			cand := FromSeed(seed)
			cand.Scheme = s
			cand.Variant = ygm.LazyExchange
			cand.TTL = 0
			cand.Jitter = false
			cand.Mutant = MutantReorderDelivery
			if StillFails(cand, 2) {
				c, found = cand, true
				break
			}
		}
	}
	if !found {
		t.Fatalf("no failing reorder workload within the budget; mutation smoke should have caught this")
	}
	small := Shrink(c, func(cand Case) bool { return StillFails(cand, *flagRetry) })
	if !StillFails(small, *flagRetry) {
		t.Fatalf("shrunk case %s no longer fails", small)
	}
	if small.Phases*small.Msgs > 4 {
		t.Fatalf("reorder repro did not shrink to <= 4 commands per rank: %s", small)
	}
}

// TestCaseStringRoundTrip pins the repro string format: every derivable
// case must parse back to itself, including mutants.
func TestCaseStringRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		for _, c := range combos(seed) {
			c.Mutant = Mutant(int(seed) % (len(Mutants) + 1))
			back, err := ParseCase(c.String())
			if err != nil {
				t.Fatalf("ParseCase(%q): %v", c.String(), err)
			}
			if back != c {
				t.Fatalf("round trip changed the case:\n  in:  %s\n  out: %s", c, back)
			}
		}
	}
}

// TestParseCaseRejects pins the loud-failure behavior for stale or
// mistyped repro strings.
func TestParseCaseRejects(t *testing.T) {
	for _, bad := range []string{
		"seed=1,bogus=2",
		"seed=x",
		"seed=1,topo=3",
		"seed=1,topo=0x2,scheme=NLNR,variant=lazy,phases=1,msgs=1,cap=2,payload=0,ttl=0,bcast=0,jitter=0,testempty=0",
		// 200 ranks: origin 128 would collide with origin 0 in spawn keys.
		"seed=1,topo=20x10,scheme=NLNR,variant=lazy,phases=1,msgs=1,cap=2,payload=0,ttl=2,bcast=0,jitter=0,testempty=0",
		"seed=1,scheme=Quantum",
		"seed=1,variant=telepathic",
		"seed=1,mutant=helpful",
		"no-equals-sign",
	} {
		if _, err := ParseCase(bad); err == nil {
			t.Errorf("ParseCase(%q) accepted a malformed case", bad)
		}
	}
}

// TestShrinkMinimizesMutantFailure runs the whole failure pipeline on a
// deterministic mutant: the shrinker must return a still-failing case no
// larger than the original, and the repro command must embed its exact
// string form.
func TestShrinkMinimizesMutantFailure(t *testing.T) {
	c := FromSeed(1)
	c.Scheme = machine.NoRoute
	c.Variant = ygm.LazyExchange
	c.Mutant = MutantDropDelivery
	if err := RunCase(c); err == nil {
		t.Skip("drop mutant did not fail on this workload; smoke test covers detection")
	}
	small := Shrink(c, func(cand Case) bool { return StillFails(cand, *flagRetry) })
	if !StillFails(small, *flagRetry) {
		t.Fatalf("shrunk case %s no longer fails", small)
	}
	if small.Nodes*small.Cores > c.Nodes*c.Cores || small.Phases > c.Phases || small.Msgs > c.Msgs {
		t.Fatalf("shrink grew the case: %s -> %s", c, small)
	}
	cmd := ReproCommand(small)
	if !strings.Contains(cmd, small.String()) || !strings.Contains(cmd, "go test ./internal/simtest") {
		t.Fatalf("repro command %q does not replay %s", cmd, small)
	}
	// The printed command must parse back to the same case.
	_, after, ok := strings.Cut(cmd, "-case='")
	if !ok {
		t.Fatalf("repro command %q has no -case flag", cmd)
	}
	back, err := ParseCase(strings.TrimSuffix(after, "'"))
	if err != nil || back != small {
		t.Fatalf("repro command round trip: %v (got %s, want %s)", err, back, small)
	}
}

// TestFromSeedCoversShapes checks the seed-derivation actually reaches
// the degenerate topologies the fuzzer exists to exercise.
func TestFromSeedCoversShapes(t *testing.T) {
	seen := map[[2]int]bool{}
	for seed := int64(0); seed < 2000; seed++ {
		c := FromSeed(seed)
		seen[[2]int{c.Nodes, c.Cores}] = true
	}
	for _, shape := range topoShapes {
		if !seen[shape] {
			t.Errorf("no seed below 2000 produced topology %dx%d", shape[0], shape[1])
		}
	}
}
