package simtest

import (
	"reflect"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/ygm"
)

// TestSeededSourcesRepeat: every seeded source of the harness draws the
// same values from the same seed twice — the case dimensions, each
// rank's send script, each rank's container script and the jitter
// injector — so a printed repro replays the run it names. A draw from
// math/rand's process-global source fails here on the first seed.
func TestSeededSourcesRepeat(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		c := FromSeed(seed)
		if again := FromSeed(seed); again != c {
			t.Fatalf("FromSeed(%d) gave %v, then %v", seed, c, again)
		}
		c.Jitter = true
		_, first := runCaseLogged(c, nil)
		_, second := runCaseLogged(c, nil)
		if err := compareScripts(first, second); err != nil {
			t.Fatalf("%v run twice: %v", c, err)
		}
		cc := baseContainerCase(seed, ygm.LazyExchange, "")
		for r := range machine.Rank(cc.Nodes * cc.Cores) {
			if a, b := genContainerScript(cc, r), genContainerScript(cc, r); !reflect.DeepEqual(a, b) {
				t.Fatalf("%v: rank %d's container script differs between two calls", cc, r)
			}
		}
		one, two := jitterDelay(seed, 4), jitterDelay(seed, 4)
		for i := range 64 {
			if a, b := one(machine.Rank(i%4), 0, 0, 0), two(machine.Rank(i%4), 0, 0, 0); a != b {
				t.Fatalf("seed %d: jitter draw %d from rank %d: %g, then %g", seed, i, i%4, a, b)
			}
		}
	}
}
