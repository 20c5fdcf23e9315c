// Package simtest is the seeded simulation-fuzz harness for the YGM
// mailbox stack. Each Case describes one randomized workload — a
// topology, a routing scheme, a mailbox variant, and a seeded pattern of
// sends, broadcasts, handler-spawned follow-ups, and mid-run WaitEmpty
// barriers — executed under optional delivery-delay injection. Every
// logical send, delivery and barrier goes into one synch.Log, on which
// synch.Judge decides exactly-once delivery to the correct rank and
// synchronizability. The oracle (see oracle.go) checks what that log
// cannot show: intact payloads, hop sequences conforming to
// machine.Path, remote transmissions staying inside each scheme's
// channel set, and that no barrier returned while messages of its phase
// were still in flight. transport.Run itself checks packet
// conservation.
//
// Cases are value types with a compact string form (String/ParseCase) so
// a failing run — after the shrinker minimizes it — reproduces from a
// single printed `go test` command.
package simtest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"ygm/internal/machine"
	"ygm/internal/ygm"
)

// variants lists the exchange styles the harness covers, in sweep
// order.
var variants = []ygm.ExchangeStyle{ygm.LazyExchange, ygm.RoundExchange, ygm.SyncExchange}

// parseVariant inverts ExchangeStyle.String over variants.
func parseVariant(s string) (ygm.ExchangeStyle, error) {
	for _, v := range variants {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("simtest: unknown variant %q", s)
}

// Case is one fully-specified fuzz workload. The zero value is invalid;
// derive cases with FromSeed or ParseCase.
type Case struct {
	// Seed feeds every random choice of the workload (destinations,
	// payload sizes, broadcast picks, jitter) and the transport's
	// per-rank sources.
	Seed int64
	// Nodes x Cores is the simulated topology.
	Nodes, Cores int
	// Scheme is the routing protocol under test.
	Scheme machine.Scheme
	// Variant is the exchange style of the mailbox under test.
	Variant ygm.ExchangeStyle
	// Phases is the number of send-then-barrier rounds each rank runs;
	// every phase ends in a WaitEmpty barrier.
	Phases int
	// Msgs is the number of application sends per rank per phase.
	Msgs int
	// Capacity is the mailbox capacity (small values force frequent
	// communication contexts / rounds).
	Capacity int
	// MaxPayload bounds the random filler appended to each message.
	MaxPayload int
	// TTL is the maximum handler-spawn depth: a delivered unicast with
	// ttl>0 spawns one follow-up send with ttl-1 (data-dependent
	// traffic, as in graph traversals). 0 disables spawning.
	TTL int
	// BcastEvery makes roughly one in BcastEvery sends a Broadcast;
	// 0 disables broadcasts.
	BcastEvery int
	// Jitter enables seeded random extra delivery delays, perturbing
	// which packets are physically present at each poll or drain.
	Jitter bool
	// TestEmptyBarrier drives the lazy variant's barriers through
	// nonblocking TestEmpty polling instead of WaitEmpty (ignored by
	// the other variants).
	TestEmptyBarrier bool
	// Mutant injects a deliberate fault (see mutants.go); MutantNone
	// for clean runs.
	Mutant Mutant
}

// topoShapes are the cluster shapes the fuzzer draws from: the paper's
// N>C and C>1 sweet spot plus every degenerate edge (single node, single
// core, N<C, N=C, non-divisible layer sizes).
var topoShapes = [][2]int{
	{1, 1}, {2, 1}, {1, 2}, {1, 3}, {3, 1},
	{2, 2}, {3, 2}, {2, 3}, {4, 2}, {3, 3},
	{4, 3}, {5, 3}, {2, 4}, {4, 4}, {6, 2},
}

// FromSeed derives the workload dimensions of a Case from a seed. The
// caller chooses Scheme and Variant (the fuzz loop enumerates all
// combinations for every seed); Variant starts lazy.
func FromSeed(seed int64) Case {
	rng := rand.New(rand.NewSource(seed*2654435761 + 0x9e3779b9))
	shape := topoShapes[rng.Intn(len(topoShapes))]
	caps := []int{2, 4, 8, 16, 64}
	bcast := []int{0, 4, 7}
	return Case{
		Seed:             seed,
		Nodes:            shape[0],
		Cores:            shape[1],
		Variant:          ygm.LazyExchange,
		Phases:           1 + rng.Intn(3),
		Msgs:             4 + rng.Intn(21),
		Capacity:         caps[rng.Intn(len(caps))],
		MaxPayload:       rng.Intn(33),
		TTL:              rng.Intn(3),
		BcastEvery:       bcast[rng.Intn(len(bcast))],
		Jitter:           rng.Intn(2) == 1,
		TestEmptyBarrier: rng.Intn(4) == 0,
	}
}

// Topo returns the Case's topology.
func (c Case) Topo() machine.Topology { return machine.New(c.Nodes, c.Cores) }

// String renders the Case in its canonical compact form, parseable by
// ParseCase. The mutant is included only when set, so clean repro
// strings stay clean.
func (c Case) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d,topo=%dx%d,scheme=%s,variant=%s,phases=%d,msgs=%d,cap=%d,payload=%d,ttl=%d,bcast=%d,jitter=%d,testempty=%d",
		c.Seed, c.Nodes, c.Cores, c.Scheme, c.Variant, c.Phases, c.Msgs,
		c.Capacity, c.MaxPayload, c.TTL, c.BcastEvery, b2i(c.Jitter), b2i(c.TestEmptyBarrier))
	if c.Mutant != MutantNone {
		fmt.Fprintf(&b, ",mutant=%s", c.Mutant)
	}
	return b.String()
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// ParseCase inverts String. Unknown keys are rejected so stale repro
// commands fail loudly rather than silently running a different case.
func ParseCase(s string) (Case, error) {
	var c Case
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("simtest: malformed case field %q", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		case "topo":
			n, cs, ok := strings.Cut(v, "x")
			if !ok {
				return c, fmt.Errorf("simtest: malformed topo %q", v)
			}
			if c.Nodes, err = strconv.Atoi(n); err == nil {
				c.Cores, err = strconv.Atoi(cs)
			}
		case "scheme":
			c.Scheme, err = machine.ParseScheme(v)
		case "variant":
			c.Variant, err = parseVariant(v)
		case "phases":
			c.Phases, err = strconv.Atoi(v)
		case "msgs":
			c.Msgs, err = strconv.Atoi(v)
		case "cap":
			c.Capacity, err = strconv.Atoi(v)
		case "payload":
			c.MaxPayload, err = strconv.Atoi(v)
		case "ttl":
			c.TTL, err = strconv.Atoi(v)
		case "bcast":
			c.BcastEvery, err = strconv.Atoi(v)
		case "jitter":
			c.Jitter = v == "1"
		case "testempty":
			c.TestEmptyBarrier = v == "1"
		case "mutant":
			c.Mutant, err = ParseMutant(v)
		default:
			return c, fmt.Errorf("simtest: unknown case field %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("simtest: case field %q: %v", kv, err)
		}
	}
	if err := c.validate(); err != nil {
		return c, err
	}
	return c, nil
}

// validate rejects dimension combinations the harness cannot run.
func (c Case) validate() error {
	if c.Nodes <= 0 || c.Cores <= 0 {
		return fmt.Errorf("simtest: invalid topology %dx%d", c.Nodes, c.Cores)
	}
	if c.Phases <= 0 || c.Msgs < 0 || c.Capacity <= 0 || c.MaxPayload < 0 || c.TTL < 0 || c.BcastEvery < 0 {
		return fmt.Errorf("simtest: invalid workload dimensions in %q", c.String())
	}
	// Deterministic spawn keys (see msgKey in oracle.go) pack the parent
	// sequence number and origin into 8-bit fields: per-rank top-level
	// send counts must stay below 128, the world at 128 ranks and spawn
	// depth below 3. FromSeed stays far inside all three bounds.
	if c.Nodes*c.Cores > 128 {
		return fmt.Errorf("simtest: %d ranks overflow the deterministic spawn-key encoding (max 128)", c.Nodes*c.Cores)
	}
	if c.Phases*c.Msgs > 127 {
		return fmt.Errorf("simtest: %d sends per rank overflow the deterministic spawn-key encoding (max 127)", c.Phases*c.Msgs)
	}
	if c.TTL > 2 {
		return fmt.Errorf("simtest: ttl %d overflows the deterministic spawn-key encoding (max 2)", c.TTL)
	}
	return nil
}
