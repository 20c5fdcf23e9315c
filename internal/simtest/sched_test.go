package simtest

import (
	"fmt"
	"strings"
	"testing"

	"ygm/internal/machine"
)

// schedWorkerCounts are the M:N scheduler configurations the scheduled
// oracle sweep runs under: a single worker (maximal token contention —
// every wake is a queue handoff), a small pool, and the automatic
// policy, which runs these small worlds on the direct model, as the
// control arm.
var schedWorkerCounts = []int{1, 3, 0}

// TestScheduledFuzz re-runs the full oracle suite — delivery semantics
// plus synchronizability certification — with the transport's M:N rank
// scheduler forced on, across every mailbox variant and routing scheme.
// The fuzz workloads are far below the scheduler's auto-enable
// threshold, so without the forced Workers the whole suite would only
// ever exercise the direct goroutine-per-rank model; this sweep is what
// pins the scheduler to the same delivery and reorder-equivalence
// contract.
func TestScheduledFuzz(t *testing.T) {
	const seeds = 12
	for _, workers := range schedWorkerCounts {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				for _, c := range combos(seed) {
					c.Workers = workers
					runAndReport(t, c)
				}
			}
		})
	}
}

// TestScheduledContainerWorkloads runs the container sweep (owner-side
// model oracle plus synchronizability) under the forced scheduler on
// every mailbox variant.
func TestScheduledContainerWorkloads(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 3} {
				for seed := int64(1); seed <= 3; seed++ {
					c := baseContainerCase(seed, v, "sim")
					c.Workers = workers
					out := RunContainerCase(c)
					if err := out.Err(); err != nil {
						t.Fatalf("case %s: %v", c, err)
					}
					if !out.SynchChecked || out.Cert == nil {
						t.Fatalf("case %s: no synchronizability certificate", c)
					}
				}
			}
		})
	}
}

// TestScheduledCaseRoundtrip pins the repro-string form of the Workers
// knob: non-zero worker counts must round-trip through String/ParseCase
// (a shrunk scheduled failure has to reproduce as a scheduled run),
// zero must stay invisible so existing repro commands are unchanged,
// and a negative count, which the transport rejects, must not parse.
func TestScheduledCaseRoundtrip(t *testing.T) {
	c := FromSeed(7)
	c.Scheme = machine.Schemes[0]
	if got := c.String(); strings.Contains(got, "workers=") {
		t.Fatalf("zero Workers leaked into repro string %q", got)
	}
	c.Workers = 3
	parsed, err := ParseCase(c.String())
	if err != nil {
		t.Fatalf("ParseCase(%q): %v", c.String(), err)
	}
	if parsed != c {
		t.Fatalf("roundtrip mismatch:\n  want %+v\n  got  %+v", c, parsed)
	}
	bad := strings.Replace(c.String(), "workers=3", "workers=-1", 1)
	if _, err := ParseCase(bad); err == nil {
		t.Fatalf("ParseCase(%q) accepted a negative worker count", bad)
	}
}
