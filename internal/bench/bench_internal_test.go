package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quickTiny() Preset {
	p := Quick()
	// Shrink further for unit-test latency. The weak sweep keeps a
	// 32-node point: the NoRoute collapse is a function of the channel
	// count relative to the mailbox capacity, so with C=4 and a 128-slot
	// mailbox it becomes visible past ~64 ranks.
	p.WeakNodes = []int{1, 4, 16, 32}
	p.StrongNodes = []int{1, 2, 4}
	p.GridNodes = []int{1, 4, 16}
	p.MailboxCap = 128
	p.DegreeEdgesPerRank = 256
	p.DegreeStrongEdges = 1 << 11
	p.CCEdgesPerRank = 192
	p.CCStrongEdges = 1 << 11
	p.SpMVEdgeFactor = 4
	p.SpMVStrongEdges = 1 << 12
	return p
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo"}
	tbl.Add(Row{
		Labels: []Label{{Key: "nodes", Val: "4"}},
		Values: []Value{{Key: "t", Val: 1.5, Unit: "s"}, {Key: "big", Val: 2e9}},
	})
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "nodes", "1.5 s", "2.000e+09"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	empty := &Table{ID: "e", Title: "none"}
	buf.Reset()
	empty.Print(&buf)
	if !strings.Contains(buf.String(), "no rows") {
		t.Fatal("empty table should say so")
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig6a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestPresetByName(t *testing.T) {
	for _, n := range []string{"quick", "paper"} {
		p, err := PresetByName(n)
		if err != nil || p.Name != n {
			t.Fatalf("PresetByName(%q) = %+v, %v", n, p, err)
		}
	}
	if _, err := PresetByName("x"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestTopologyTable(t *testing.T) {
	tbl := runPlan(topoPlan(quickTiny()))
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// NLNR must have the smallest max partner count; NoRoute the largest.
	get := func(scheme string) float64 {
		for _, r := range tbl.Rows {
			if r.LabelVal("scheme") == scheme {
				v, _ := r.Get("max_remote_partners")
				return v
			}
		}
		t.Fatalf("missing scheme %s", scheme)
		return 0
	}
	if !(get("NLNR") < get("NodeLocal") && get("NodeLocal") < get("NoRoute")) {
		t.Fatalf("partner ordering wrong: NLNR=%g NodeLocal=%g NoRoute=%g",
			get("NLNR"), get("NodeLocal"), get("NoRoute"))
	}
}

// TestFig5Shape: model and measured bandwidths agree in order of
// magnitude, rise within the eager regime, and drop at the threshold.
func TestFig5Shape(t *testing.T) {
	tbl := runPlan(fig5Plan(quickTiny()))
	var lastEager, firstRndv float64
	prev := 0.0
	for _, r := range tbl.Rows {
		proto := r.LabelVal("protocol")
		model, _ := r.Get("model_bw")
		if measured, ok := r.Get("measured_bw"); ok {
			if measured <= 0 || measured > 3*model+1 {
				t.Fatalf("measured %g implausible vs model %g", measured, model)
			}
		}
		switch proto {
		case "eager":
			if model < prev {
				t.Fatalf("eager bandwidth fell at %s", r.LabelVal("msg_size"))
			}
			prev = model
			lastEager = model
		case "rendezvous":
			if firstRndv == 0 {
				firstRndv = model
			}
		}
	}
	if firstRndv >= lastEager {
		t.Fatalf("no rendezvous drop: eager %g -> rndv %g", lastEager, firstRndv)
	}
	// Scheme markers must order NoRoute < NodeLocal/NodeRemote < NLNR in size.
	var sizes []float64
	for _, r := range tbl.Rows {
		if strings.HasPrefix(r.LabelVal("protocol"), "marker:") {
			s, err := strconv.ParseFloat(r.LabelVal("msg_size"), 64)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, s)
		}
	}
	if len(sizes) != 3 || !(sizes[0] < sizes[1] && sizes[1] < sizes[2]) {
		t.Fatalf("marker sizes = %v", sizes)
	}
}

// TestFig5RecyclesEveryPacket is the regression guard for the packet
// leak once found in the bandwidth probe: the ping-pong loops used to
// drop their Recv results, stranding pooled packets. Run's packet ledger
// now fails such a run (runWorld panics on the PacketLeakError); this
// test pins that the probe receives every packet it sends.
func TestFig5RecyclesEveryPacket(t *testing.T) {
	rep := pingPongWorld(quickTiny(), 1<<10)
	var recvd uint64
	for _, rr := range rep.Ranks {
		recvd += rr.Stats.RecvMsgs
	}
	if want := uint64(2 * pingPongMsgs); recvd != want {
		t.Fatalf("received %d packets, want %d", recvd, want)
	}
}

// TestFig6aShape: at the largest weak-scaling point the routed schemes
// must beat NoRoute, and coalescing must give routed schemes larger
// average remote messages.
func TestFig6aShape(t *testing.T) {
	p := quickTiny()
	tbl := runPlan(fig6aPlan(p))
	last := itoa(p.WeakNodes[len(p.WeakNodes)-1])
	rows := tbl.Select("nodes", last)
	times := map[string]float64{}
	avg := map[string]float64{}
	for _, r := range rows {
		times[r.LabelVal("scheme")], _ = r.Get("sim_time")
		avg[r.LabelVal("scheme")], _ = r.Get("avg_remote_msg")
	}
	// NoRoute must lose to NodeRemote and NLNR at the largest point.
	// (NodeLocal is held to the coalescing assertion only: without the
	// paper's phased exchange rounds, its intermediaries cannot bundle
	// forwarded records with the senders' direct same-core-offset
	// traffic, so our lazy-forwarding mailbox under-coalesces it — a
	// documented deviation, see EXPERIMENTS.md.)
	if times["NoRoute"] <= times["NodeRemote"] || times["NoRoute"] <= times["NLNR"] {
		t.Fatalf("NoRoute should be slowest at scale: %v", times)
	}
	// Coalescing order: average remote packet size must grow NoRoute ->
	// NodeLocal/NodeRemote -> NLNR, the III-E size analysis.
	if !(avg["NoRoute"] < avg["NodeLocal"] && avg["NodeRemote"] < avg["NLNR"]) {
		t.Fatalf("coalescing order wrong: %v", avg)
	}
}

func TestFig6bRuns(t *testing.T) {
	tbl := runPlan(fig6bPlan(quickTiny()))
	if len(tbl.Rows) != 3*4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if v, ok := r.Get("sim_time"); !ok || v <= 0 {
			t.Fatalf("bad sim_time in %+v", r)
		}
	}
}

// TestFig7aShape: broadcasts appear and grow (or at least persist) with
// node count, and every point completes with positive time.
func TestFig7aShape(t *testing.T) {
	p := quickTiny()
	tbl := runPlan(fig7aPlan(p))
	totalBcasts := 0.0
	for _, r := range tbl.Rows {
		if v, ok := r.Get("sim_time"); !ok || v <= 0 {
			t.Fatalf("bad sim_time in %+v", r)
		}
		b, _ := r.Get("broadcasts")
		totalBcasts += b
	}
	if totalBcasts == 0 {
		t.Fatal("CC weak scaling should issue delegate broadcasts")
	}
}

func TestFig7bRuns(t *testing.T) {
	tbl := runPlan(fig7bPlan(quickTiny()))
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
}

// TestFig8aShape: CombBLAS rows appear exactly at grid node counts, and
// every YGM row carries a delegate count.
func TestFig8aShape(t *testing.T) {
	p := quickTiny()
	tbl := runPlan(fig8aPlan(p))
	combRows := tbl.Select("scheme", "CombBLAS")
	if len(combRows) != len(p.GridNodes) {
		t.Fatalf("CombBLAS rows = %d, want %d", len(combRows), len(p.GridNodes))
	}
	for _, r := range tbl.Rows {
		if r.LabelVal("scheme") == "CombBLAS" {
			continue
		}
		if _, ok := r.Get("delegates"); !ok {
			t.Fatalf("YGM row missing delegates: %+v", r)
		}
	}
}

// TestFig8bShape: delegate counts must not shrink as the graph grows.
func TestFig8bShape(t *testing.T) {
	tbl := runPlan(fig8bPlan(quickTiny()))
	prev := -1.0
	for _, r := range tbl.Rows {
		d, _ := r.Get("delegates")
		if d < prev {
			t.Fatalf("delegates shrank: %+v", tbl.Rows)
		}
		prev = d
	}
	if prev <= 0 {
		t.Fatal("largest point should have delegates")
	}
}

func TestFig8cNoDelegates(t *testing.T) {
	tbl := runPlan(fig8cPlan(quickTiny()))
	for _, r := range tbl.Rows {
		if d, ok := r.Get("delegates"); ok && d != 0 {
			t.Fatalf("uniform run produced delegates: %+v", r)
		}
	}
}

func TestFig8dRuns(t *testing.T) {
	tbl := runPlan(fig8dPlan(quickTiny()))
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
}

// TestAblationStragglerShape: what Section III-A claims and the table
// supports. A straggler slows both designs, but the asynchronous mailbox
// couples ranks only through message routes, so with one rank computing
// 10x slower it must still finish at least twice as soon as the
// synchronous ALLTOALLV does, and sooner than ALLTOALLV finishes with no
// straggler at all. (Comparing utilization drops is not the claim: the
// collective idles every rank equally and so loses little utilization
// while losing the most time.)
func TestAblationStragglerShape(t *testing.T) {
	tbl := runPlan(ablationStragglerPlan(quickTiny()))
	simTime := map[string]float64{}
	for _, r := range tbl.Rows {
		v, ok := r.Get("sim_time")
		if !ok || v <= 0 {
			t.Fatalf("row without a simulated time: %+v", r)
		}
		simTime[r.LabelVal("exchange")+"/"+r.LabelVal("load")] = v
		if msgs, _ := r.Get("remote_msgs"); msgs <= 0 {
			t.Fatalf("row without remote traffic (every tag counts): %+v", r)
		}
	}
	async, sync := simTime["ygm-async/straggler"], simTime["alltoallv-sync/straggler"]
	if 2*async > sync {
		t.Fatalf("under the straggler the async mailbox (%g s) should finish at least 2x sooner than ALLTOALLV (%g s): %v",
			async, sync, simTime)
	}
	if quiet := simTime["alltoallv-sync/none"]; async >= quiet {
		t.Fatalf("the async mailbox with a straggler (%g s) should still beat ALLTOALLV without one (%g s): %v",
			async, quiet, simTime)
	}
}

func TestAblationMailboxRuns(t *testing.T) {
	tbl := runPlan(ablationMailboxPlan(quickTiny()))
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
}

// TestAblationZeroCopyShape: zero-copy local exchange must not be slower.
func TestAblationZeroCopyShape(t *testing.T) {
	tbl := runPlan(ablationZeroCopyPlan(quickTiny()))
	times := map[string]float64{}
	for _, r := range tbl.Rows {
		v, _ := r.Get("sim_time")
		times[r.LabelVal("scheme")+"/"+r.LabelVal("local")] = v
	}
	if times["NLNR/zero-copy"] > times["NLNR/copying"] {
		t.Fatalf("zero-copy slower: %v", times)
	}
}

// TestAblationBroadcastShape: NodeRemote and NLNR broadcasts must use
// fewer remote packets than NodeLocal and NoRoute (the factor-C claim).
func TestAblationBroadcastShape(t *testing.T) {
	tbl := runPlan(ablationBroadcastPlan(quickTiny()))
	msgs := map[string]float64{}
	for _, r := range tbl.Rows {
		v, _ := r.Get("remote_msgs")
		msgs[r.LabelVal("scheme")] = v
	}
	if msgs["NodeRemote"] >= msgs["NoRoute"] || msgs["NLNR"] >= msgs["NodeLocal"] {
		t.Fatalf("broadcast remote costs out of order: %v", msgs)
	}
}

// TestAblationExchangeShape: under rotating per-round imbalance the
// asynchronous mailbox must beat the ALLTOALLV-backed exchange (its
// makespan tracks the slowest rank's own total, not the sum of
// per-round maxima). Every row counts every tag, so every row has remote
// traffic; the round-matched and collective exchanges send a fixed
// number of packets whatever the timing, pinned here.
func TestAblationExchangeShape(t *testing.T) {
	tbl := runPlan(ablationExchangePlan(quickTiny()))
	wantMsgs := map[string]float64{
		"NodeRemote/round": 17152, "NodeRemote/alltoallv": 36864,
		"NLNR/round": 5248, "NLNR/alltoallv": 18432,
	}
	times := map[string]float64{}
	for _, r := range tbl.Rows {
		v, _ := r.Get("sim_time")
		cell := r.LabelVal("scheme") + "/" + r.LabelVal("exchange")
		times[cell+"/"+r.LabelVal("load")] = v
		msgs, _ := r.Get("remote_msgs")
		if msgs <= 0 {
			t.Fatalf("%s/%s: no remote traffic (every tag counts)", cell, r.LabelVal("load"))
		}
		if want, ok := wantMsgs[cell]; ok && msgs != want {
			t.Fatalf("%s/%s: remote_msgs = %g, want %g", cell, r.LabelVal("load"), msgs, want)
		}
	}
	for _, scheme := range []string{"NodeRemote", "NLNR"} {
		async := times[scheme+"/async/jitter"]
		syncT := times[scheme+"/alltoallv/jitter"]
		if async >= syncT {
			t.Fatalf("%s: async (%g) should beat alltoallv (%g) under jitter: %v", scheme, async, syncT, times)
		}
	}
}

// TestFig8xShape: the 2D baseline's remote traffic must grow faster than
// YGM's across the crossover sweep (the sqrt(P) dense-vector mechanism).
func TestFig8xShape(t *testing.T) {
	tbl := runPlan(fig8xPlan(quickTiny()))
	var ygmMB, cbMB []float64
	for _, r := range tbl.Rows {
		v, _ := r.Get("remote_MB")
		if r.LabelVal("scheme") == "CombBLAS" {
			cbMB = append(cbMB, v)
		} else {
			ygmMB = append(ygmMB, v)
		}
	}
	if len(ygmMB) != len(cbMB) || len(ygmMB) < 3 {
		t.Fatalf("rows: ygm %d, combblas %d", len(ygmMB), len(cbMB))
	}
	// Compare traffic growth from the first multi-node point to the last.
	ygmGrowth := ygmMB[len(ygmMB)-1] / (ygmMB[1] + 1e-12)
	cbGrowth := cbMB[len(cbMB)-1] / (cbMB[1] + 1e-12)
	if cbGrowth <= ygmGrowth {
		t.Fatalf("2D vector traffic should outgrow YGM's: ygm %v, combblas %v", ygmMB, cbMB)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo"}
	tbl.Add(Row{
		Labels: []Label{{Key: "scheme", Val: "NLNR"}},
		Values: []Value{{Key: "t", Val: 1.5, Unit: "s"}, {Key: "note", Val: 2}},
	})
	var buf bytes.Buffer
	tbl.PrintCSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || lines[0] != "scheme,t,note" || !strings.HasPrefix(lines[1], "NLNR,1.5 s,") {
		t.Fatalf("csv = %q", buf.String())
	}
	empty := &Table{}
	buf.Reset()
	empty.PrintCSV(&buf)
	if buf.Len() != 0 {
		t.Fatal("empty table should emit nothing")
	}
}
