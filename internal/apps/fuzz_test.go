package apps

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/graph"
)

// panicOf runs f and returns what it panicked with, "<nil>" if nothing.
func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// FuzzAppPayloads decodes every message of the five applications, built
// by the application's encoder, into a fresh one-rank state of 64
// vertices: each lands as sent, and every strict prefix ends in the
// corrupt-message panic — the empty one in the panic naming the
// application, so a dropped type-byte error cannot fall through. Then,
// as rank 0 of two with 64 vertices each, every handler that indexes
// its owned vertices panics as corrupt on a vertex rank 1 owns and on
// one past rank 0's arrays, instead of updating some other slot.
func FuzzAppPayloads(f *testing.F) {
	f.Add(uint64(3), uint64(5), uint64(7))
	f.Add(uint64(1<<40), uint64(math.MaxUint64), math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		v := a % 64
		world := 1
		unreached := func() []uint64 {
			d := make([]uint64, 64)
			for i := range d {
				d[i] = Unreached
			}
			return d
		}
		bfs := func(p []byte) *bfsState {
			st := &bfsState{world: world, adj: map[uint64][]uint64{}, dist: unreached()}
			st.handle(nil, p)
			return st
		}
		cc := func(p []byte) *ccState {
			st := &ccState{delegation: delegation{world: world, degrees: make([]uint64, 64), delegates: map[uint64]bool{}},
				delLabels: map[uint64]uint64{a: Unreached}, labels: unreached()}
			st.handle(nil, p)
			return st
		}
		spmv := func(p []byte) *spmvState {
			st := &spmvState{delegation: delegation{world: world, degrees: make([]uint64, 64), delegates: map[uint64]bool{}},
				xDel: map[uint64]float64{}, y: make([]float64, 64)}
			st.handle(nil, p)
			return st
		}
		sssp := func(p []byte) *ssspState {
			st := &ssspState{world: world, adj: map[uint64][]graph.Edge{}, wts: map[uint64][]uint64{}, dist: unreached()}
			st.handle(nil, p)
			return st
		}
		sameBits := func(x float64) bool { y := math.Float64frombits(c); return x == y || x != x && y != y }
		var deg codec.Writer
		deg.Uvarint(a)
		for _, m := range []struct {
			app  string
			enc  []byte
			sent func(p []byte) bool
		}{
			{"bfs", (&bfsState{}).msg(bfsMsgEdge, a, b), func(p []byte) bool { return slices.Equal(bfs(p).adj[a], []uint64{b}) }},
			{"bfs", (&bfsState{}).msg(bfsMsgVisit, v, b), func(p []byte) bool { st := bfs(p); return st.dist[v] == b && slices.Equal(st.next, []uint64{v}) }},
			{"cc", ccEncode(msgDegree, v), func(p []byte) bool { return cc(p).degrees[v] == 1 }},
			{"cc", ccEncode(msgDelegate, a), func(p []byte) bool { return cc(p).delegates[a] }},
			{"cc", ccEncode(ccMsgEdge, a, b), func(p []byte) bool { return slices.Equal(cc(p).edges, []graph.Edge{{U: a, V: b}}) }},
			{"cc", ccEncode(ccMsgLabel, v, b), func(p []byte) bool { return cc(p).labels[v] == b }},
			{"cc", ccEncode(ccMsgImprove, a, b), func(p []byte) bool { return cc(p).delLabels[a] == b }},
			{"cc", ccEncode(ccMsgSync, a, b), func(p []byte) bool { return cc(p).delLabels[a] == b }},
			{"spmv", ccEncode(msgDegree, v), func(p []byte) bool { return spmv(p).degrees[v] == 1 }},
			{"spmv", ccEncode(msgDelegate, a), func(p []byte) bool { return spmv(p).delegates[a] }},
			{"spmv", ccEncode(spmvMsgEntry, a, b, c), func(p []byte) bool {
				e := spmv(p).entries
				return len(e) == 1 && e[0].row == a && e[0].col == b && math.Float64bits(e[0].val) == c
			}},
			{"spmv", ccEncode(spmvMsgX, a, c), func(p []byte) bool { return math.Float64bits(spmv(p).xDel[a]) == c }},
			{"spmv", ccEncode(spmvMsgY, v, c), func(p []byte) bool { return sameBits(spmv(p).y[v]) }},
			{"sssp", ccEncode(ssspMsgEdge, a, b, c), func(p []byte) bool {
				st := sssp(p)
				return slices.Equal(st.adj[a], []graph.Edge{{U: a, V: b}}) && slices.Equal(st.wts[a], []uint64{c})
			}},
			{"sssp", ccEncode(ssspMsgRelax, v, b), func(p []byte) bool { return sssp(p).dist[v] == b }},
			{"degree", deg.Bytes(), func(p []byte) bool { return degreeVertex(p) == a }},
		} {
			if !m.sent(m.enc) {
				t.Fatalf("%s message % x did not decode to what was sent", m.app, m.enc)
			}
			for i := range m.enc {
				want := "apps: corrupt "
				if i == 0 {
					want += m.app
				}
				if msg := panicOf(func() { m.sent(m.enc[:i]) }); !strings.HasPrefix(msg, want) {
					t.Fatalf("%s message % x cut to %d bytes: panic %q, want %q…", m.app, m.enc, i, msg, want)
				}
			}
		}
		world = 2
		for _, u := range []uint64{v | 1, 128 + v&^1} {
			for _, m := range []struct {
				app string
				run func()
			}{
				{"bfs", func() { bfs((&bfsState{}).msg(bfsMsgVisit, u, b)) }},
				{"cc", func() { cc(ccEncode(msgDegree, u)) }},
				{"cc", func() { cc(ccEncode(ccMsgLabel, u, b)) }},
				{"spmv", func() { spmv(ccEncode(msgDegree, u)) }},
				{"spmv", func() { spmv(ccEncode(spmvMsgY, u, c)) }},
				{"sssp", func() { sssp(ccEncode(ssspMsgRelax, u, b)) }},
				{"degree", func() { localID(u, world, 0, 64) }},
			} {
				if msg := panicOf(m.run); !strings.HasPrefix(msg, "apps: corrupt message: vertex") {
					t.Fatalf("%s handler on rank 0 of 2 given vertex %d: panic %q, want a corrupt vertex", m.app, u, msg)
				}
			}
		}
	})
}
