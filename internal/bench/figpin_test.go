package bench

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// pinFile is the committed trajectory of the pinned figures'
// simulated seconds, at the repository root.
const pinFile = "../../BENCH_ygm.json"

// pinTolerance is the relative drift a pinned figure may show before
// the test fails. Simulated time is a function of the netsim cost model,
// not of the host; the tolerance absorbs only the simulator's
// tie-break jitter (see jitterKeys).
const pinTolerance = 0.05

// TestFigurePins runs degree-counting weak scaling (Fig. 6a) and SpMV
// weak scaling (Fig. 8a) on the quick preset and requires each figure's
// summed sim_time to stay within pinTolerance of the committed
// BENCH_ygm.json. A change that moves a figure on purpose commits the
// value the failure prints.
func TestFigurePins(t *testing.T) {
	data, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	var pins struct {
		Figures []struct {
			ID         string  `json:"id"`
			SimSeconds float64 `json:"sim_seconds"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatalf("parsing %s: %v", pinFile, err)
	}
	committed := map[string]float64{}
	for _, f := range pins.Figures {
		committed[f.ID] = f.SimSeconds
	}
	for _, id := range []string{"fig6a", "fig8a"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, row := range runPlan(e.Plan(Quick())).Rows {
			v, _ := row.Get("sim_time")
			total += v
		}
		want, ok := committed[id]
		if !ok {
			t.Errorf("%s: not pinned in %s; commit {\"id\": %q, \"sim_seconds\": %v}", id, pinFile, id, total)
			continue
		}
		if drift := total/want - 1; math.Abs(drift) > pinTolerance {
			t.Errorf("%s: %.6g simulated s is %+.1f%% from the pinned %.6g s (bound %.0f%%); if the move is intended, commit \"sim_seconds\": %v",
				id, total, 100*drift, want, 100*pinTolerance, total)
			continue
		}
		t.Logf("%s: %v simulated s (pinned %v)", id, total, want)
	}
}
