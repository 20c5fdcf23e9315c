package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sends")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("sends") != c {
		t.Fatal("Counter did not return the same instance on second lookup")
	}

	g := r.Gauge("depth")
	g.Set(3)
	g.Set(9)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 9 {
		t.Fatalf("gauge last=%g max=%g, want last=2 max=9", g.Value(), g.Max())
	}
	if r.Gauge("depth") != g {
		t.Fatal("Gauge did not return the same instance on second lookup")
	}
}

func TestSnapshotMerge(t *testing.T) {
	ra := NewRegistry()
	ra.Counter("msgs").Add(10)
	ra.Counter("only_a").Add(1)
	ra.Gauge("depth").Set(5)

	rb := NewRegistry()
	rb.Counter("msgs").Add(32)
	rb.Counter("only_b").Add(2)
	rb.Gauge("depth").Set(9)
	rb.Gauge("depth").Set(1) // last=1, max=9 — max wins the merge

	m := ra.Snapshot().Merge(rb.Snapshot())
	if got := m.Counter("msgs"); got != 42 {
		t.Fatalf("merged msgs = %d, want 42", got)
	}
	if m.Counter("only_a") != 1 || m.Counter("only_b") != 2 {
		t.Fatal("one-sided counters lost in merge")
	}
	if m.Counter("absent") != 0 {
		t.Fatal("absent counter should read 0")
	}
	g := m.Gauges["depth"]
	if g.Max != 9 || g.Last != 1 {
		t.Fatalf("merged gauge = %+v, want Max=9 (b's mark) with its Last=1", g)
	}
}

func TestSnapshotMergeZero(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	var zero Snapshot
	m := zero.Merge(r.Snapshot())
	if m.Counter("x") != 1 {
		t.Fatal("merge with zero snapshot lost data")
	}
	m2 := r.Snapshot().Merge(zero)
	if m2.Counter("x") != 1 {
		t.Fatal("merge of zero snapshot lost data")
	}
}

func TestMergeSnapshots(t *testing.T) {
	snaps := make([]Snapshot, 4)
	for i := range snaps {
		r := NewRegistry()
		r.Counter("n").Add(uint64(i + 1))
		snaps[i] = r.Snapshot()
	}
	m := MergeSnapshots(snaps...)
	if m.Counter("n") != 10 {
		t.Fatalf("MergeSnapshots n = %d, want 10", m.Counter("n"))
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_count").Inc()
	r.Counter("a_count").Inc()
	r.Gauge("depth").Set(4)
	out := r.Snapshot().String()
	ai := strings.Index(out, "a_count")
	bi := strings.Index(out, "b_count")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("expected sorted counter names in output:\n%s", out)
	}
	for _, want := range []string{"counter", "gauge", "depth"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotIsFrozen(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(3)
	s := r.Snapshot()
	c.Add(100)
	if s.Counter("n") != 3 {
		t.Fatalf("snapshot mutated after registry update: %d", s.Counter("n"))
	}
}

func TestRecorderBasic(t *testing.T) {
	rec := NewRecorder(4)
	if rec.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", rec.Cap())
	}
	if got := rec.Snapshot(); len(got) != 0 {
		t.Fatalf("empty recorder snapshot has %d events", len(got))
	}
	rec.Record(Event{Kind: KSend, T: 1, Peer: 2})
	rec.Record(Event{Kind: KRecv, T: 2, Peer: 3})
	got := rec.Snapshot()
	if len(got) != 2 || got[0].Kind != KSend || got[1].Kind != KRecv {
		t.Fatalf("snapshot = %+v", got)
	}
	if rec.Total() != 2 {
		t.Fatalf("total = %d, want 2", rec.Total())
	}
}

func TestRecorderWraparound(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Record(Event{Kind: KMark, T: float64(i), Tag: uint64(i)})
	}
	got := rec.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := uint64(6 + i); e.Tag != want {
			t.Fatalf("event %d has tag %d, want %d (oldest-first order)", i, e.Tag, want)
		}
	}
	if rec.Total() != 10 {
		t.Fatalf("total = %d, want 10", rec.Total())
	}
}

func TestRecorderDefaultSize(t *testing.T) {
	if rec := NewRecorder(0); rec.Cap() != DefaultRecorderSize {
		t.Fatalf("default cap = %d, want %d", rec.Cap(), DefaultRecorderSize)
	}
	if rec := NewRecorder(-5); rec.Cap() != DefaultRecorderSize {
		t.Fatal("negative size should select the default")
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want []string
	}{
		{Event{Kind: KSend, T: 0.001, Peer: 3, Tag: 0x10, Size: 64}, []string{"send", "peer=3", "tag=0x10", "size=64"}},
		{Event{Kind: KJump, T: 0.5, Peer: 1, Tag: 1, Size: 8}, []string{"jump", "peer=1"}},
		{Event{Kind: KSpanBegin, T: 2, Name: "drain"}, []string{"span+", "drain"}},
		{Event{Kind: KSpanEnd, T: 3, Name: "drain"}, []string{"span-", "drain"}},
		{Event{Kind: KMark, T: 4, Name: "term.gen", Tag: 7}, []string{"mark", "term.gen", "tag=7"}},
	}
	for _, tc := range cases {
		s := tc.e.String()
		for _, want := range tc.want {
			if !strings.Contains(s, want) {
				t.Fatalf("%q missing %q", s, want)
			}
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestFormatEvents(t *testing.T) {
	events := []Event{
		{Kind: KSend, T: 1, Peer: 1},
		{Kind: KMark, T: 2, Name: "m"},
	}
	out := FormatEvents(events, "    ")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, "    ") {
			t.Fatalf("line %d not indented: %q", i, l)
		}
	}
	if FormatEvents(nil, "  ") != "" {
		t.Fatal("nil events should format to empty string")
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	rec := NewRecorder(32)
	e := Event{Kind: KSend, T: 1, Peer: 2, Tag: 3, Size: 4}
	allocs := testing.AllocsPerRun(100, func() {
		rec.Record(e)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("g")
	allocs = testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(1)
	})
	if allocs != 0 {
		t.Fatalf("metric writes allocate %.1f per op, want 0", allocs)
	}
}

func ExampleSnapshot_String() {
	r := NewRegistry()
	r.Counter("ygm.sends").Add(2)
	fmt.Print(r.Snapshot().String())
	// Output: counter ygm.sends                        2
}
