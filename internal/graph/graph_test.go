package graph

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRMATParamsValidate(t *testing.T) {
	if err := Graph500.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Uniform4.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Webgraph.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := RMATParams{A: 0.5, B: 0.5, C: 0.5, D: 0.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-normalized parameters accepted")
	}
	neg := RMATParams{A: -0.1, B: 0.5, C: 0.3, D: 0.3}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative parameter accepted")
	}
}

func TestRMATDeterminism(t *testing.T) {
	a := Collect(NewRMAT(Graph500, 10, 7), 100)
	b := Collect(NewRMAT(Graph500, 10, 7), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := Collect(NewRMAT(Graph500, 10, 8), 100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRMATRange(t *testing.T) {
	g := NewRMAT(Graph500, 8, 1)
	n := g.NumVertices()
	if n != 256 {
		t.Fatalf("NumVertices = %d", n)
	}
	for _, e := range Collect(g, 2000) {
		if e.U >= n || e.V >= n {
			t.Fatalf("edge %v outside [0,%d)", e, n)
		}
	}
}

// TestRMATSkew: Graph500 parameters concentrate edges on low vertex ids;
// the max degree must far exceed the mean, while Uniform4 stays flat.
func TestRMATSkew(t *testing.T) {
	const scale, edges = 12, 1 << 15
	maxDeg := func(p RMATParams) (max float64, mean float64) {
		g := NewRMAT(p, scale, 5)
		deg := Degrees(Collect(g, edges), g.NumVertices())
		var m uint64
		for _, d := range deg {
			if d > m {
				m = d
			}
		}
		return float64(m), float64(2*edges) / float64(g.NumVertices())
	}
	skMax, skMean := maxDeg(Graph500)
	if skMax < 20*skMean {
		t.Fatalf("Graph500 max degree %g not skewed vs mean %g", skMax, skMean)
	}
	unMax, unMean := maxDeg(Uniform4)
	if unMax > 20*unMean {
		t.Fatalf("Uniform4 max degree %g unexpectedly skewed vs mean %g", unMax, unMean)
	}
}

func TestRMATPanicsOnBadInput(t *testing.T) {
	for _, f := range []func(){
		func() { NewRMAT(RMATParams{A: 2}, 4, 1) },
		func() { NewRMAT(Graph500, 0, 1) },
		func() { NewRMAT(Graph500, 63, 1) },
		func() { NewUniform(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}

func TestUniformRangeAndBalance(t *testing.T) {
	g := NewUniform(64, 3)
	deg := Degrees(Collect(g, 64*100), 64)
	// Each vertex expects 200 endpoint hits; allow generous slack.
	for v, d := range deg {
		if d < 100 || d > 320 {
			t.Fatalf("vertex %d degree %d far from expectation 200", v, d)
		}
	}
}

func TestOwnerPartitioning(t *testing.T) {
	const p = 7
	counts := make([]uint64, p)
	for v := uint64(0); v < 1000; v++ {
		o := Owner(v, p)
		if o != int(v%p) {
			t.Fatalf("Owner(%d) = %d", v, o)
		}
		if got := GlobalID(LocalID(v, p), p, o); got != v {
			t.Fatalf("local/global round trip: %d -> %d", v, got)
		}
		counts[o]++
	}
	var total uint64
	for r := 0; r < p; r++ {
		if got := LocalCount(1000, p, r); got != counts[r] {
			t.Fatalf("LocalCount(rank %d) = %d, want %d", r, got, counts[r])
		}
		total += counts[r]
	}
	if total != 1000 {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestLocalIDProperty(t *testing.T) {
	f := func(v uint64, praw uint8) bool {
		p := int(praw%32) + 1
		o := Owner(v, p)
		return o >= 0 && o < p && GlobalID(LocalID(v, p), p, o) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedMaxDegreeScaling(t *testing.T) {
	// Doubling vertices (scale+1) with doubled edges multiplies the
	// expected max degree by 2*(A+B).
	e1 := ExpectedMaxDegree(Graph500, 10, 1<<14)
	e2 := ExpectedMaxDegree(Graph500, 11, 1<<15)
	want := 2 * (Graph500.A + Graph500.B)
	if got := e2 / e1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("scaling ratio = %g, want %g", got, want)
	}
}

func TestDelegateThresholdFloor(t *testing.T) {
	if got := DelegateThreshold(Graph500, 30, 4, 0.001); got != 2 {
		t.Fatalf("threshold floor = %d, want 2", got)
	}
	big := DelegateThreshold(Graph500, 8, 1<<20, 0.5)
	if big <= 2 {
		t.Fatalf("large workload threshold = %d", big)
	}
}

func TestDegreesOracle(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 2}, {3, 0}}
	deg := Degrees(edges, 5)
	want := []uint64{2, 2, 3, 1, 0}
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("deg = %v, want %v", deg, want)
		}
	}
}

func TestConnectedComponentsSeq(t *testing.T) {
	// Components: {0,1,2,5}, {3,4}, {6}.
	edges := []Edge{{1, 2}, {0, 1}, {5, 2}, {3, 4}}
	got := ConnectedComponentsSeq(edges, 7)
	want := []uint64{0, 0, 0, 3, 3, 0, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cc = %v, want %v", got, want)
		}
	}
}

// TestConnectedComponentsSeqProperty: labels are idempotent (label of the
// label is the label) and consistent across edges.
func TestConnectedComponentsSeqProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 64
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{uint64(raw[i] % n), uint64(raw[i+1] % n)})
		}
		labels := ConnectedComponentsSeq(edges, n)
		for v, l := range labels {
			if labels[l] != l || l > uint64(v) {
				return false
			}
		}
		for _, e := range edges {
			if labels[e.U] != labels[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWebgraphHeavierTail: the webgraph preset should be at least as
// skewed as Graph500 at equal scale.
func TestWebgraphHeavierTail(t *testing.T) {
	const scale, edges = 12, 1 << 15
	top := func(p RMATParams) uint64 {
		g := NewRMAT(p, scale, 9)
		deg := Degrees(Collect(g, edges), g.NumVertices())
		sort.Slice(deg, func(i, j int) bool { return deg[i] > deg[j] })
		return deg[0]
	}
	if top(Webgraph) < top(Graph500) {
		t.Fatalf("webgraph top degree %d below Graph500's %d", top(Webgraph), top(Graph500))
	}
}

func TestUniformDeterminism(t *testing.T) {
	a := Collect(NewUniform(1<<20, 7), 100)
	if b := Collect(NewUniform(1<<20, 7), 100); !slices.Equal(a, b) {
		t.Fatal("one seed produced two uniform streams")
	}
	if c := Collect(NewUniform(1<<20, 8), 100); slices.Equal(a, c) {
		t.Fatal("different seeds produced identical uniform streams")
	}
}
