package main

import (
	"net"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"ygm/internal/transport"
)

// The parent re-executes its own binary for every repetition; under go
// test that binary is the test binary, so it has to act as the child
// when asked to.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		o, err := parseFlags(os.Args[1:])
		if err != nil {
			os.Exit(2)
		}
		os.Exit(childMain(o))
	}
	os.Exit(m.Run())
}

func testParent(t *testing.T, mutate func(*options)) *parent {
	t.Helper()
	// No address-space cap: a race-instrumented test binary maps far
	// more than any cap worth setting.
	o := &options{seed: 2, quick: true, deadline: time.Minute}
	if mutate != nil {
		mutate(o)
	}
	pa, err := newParent(o, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return pa
}

func TestQuickRepetitionsPassTheirChecks(t *testing.T) {
	pa := testParent(t, nil)
	for _, name := range []string{"stream_local", "quiesce_local", "wordcount_local"} {
		w := findWorkload(name)
		r := pa.runRep(w, false)
		if r.Fail != "" || r.Verified != r.Attempted || r.Attempted != w.ops(true) {
			t.Fatalf("%s: fail %q (%s), verified %d of %d", name, r.Fail, r.Detail, r.Verified, r.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || !finite(v) || v <= 0 {
				t.Errorf("%s: %s = %v (present %v), want a positive number", name, d.Name, v, ok)
			}
		}
	}
}

func TestTracedRepetitionWritesSpanFile(t *testing.T) {
	pa := testParent(t, nil)
	w := findWorkload("stream_local")
	wr := newWorkloadResult(w.Name)
	pa.traceWorkload(w, wr)
	if wr.Failed != 0 {
		t.Fatalf("traced run failed: %v %v", wr.Fails, wr.Details)
	}
	for _, d := range workloadLayers() {
		_, measured := wr.Layers[d.Name]
		_, absent := wr.Absent[d.Name]
		if measured == absent {
			t.Errorf("%s: measured %v, absent %v — want exactly one", d.Name, measured, absent)
		}
	}
	for _, name := range []string{"app.gen_ns_per_op", "ygm.send_self_ns_per_op", "ygm.commctx_s"} {
		if wr.Layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, wr.Layers[name])
		}
	}
	if fi, err := os.Stat(pa.outDir + "/stream_local.trace.json"); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// A repetition that outlives its deadline is killed and reported as
// failed operations with a typed reason — never a hang.
func TestDeadlineYieldsTypedFailure(t *testing.T) {
	pa := testParent(t, func(o *options) { o.deadline = time.Millisecond })
	start := time.Now()
	r := pa.runRep(findWorkload("stream_local"), false)
	if r.Fail != failDeadline || r.failed() != r.Attempted {
		t.Errorf("fail = %q (%s), failed %d of %d; want %q and all", r.Fail, r.Detail, r.failed(), r.Attempted, failDeadline)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("deadline took %v to fire", time.Since(start))
	}
}

// Killing a tcp rank mid-run fails the repetition with a typed reason
// within the deadline.
func TestKilledRankYieldsTypedFailure(t *testing.T) {
	pa := testParent(t, func(o *options) {
		o.quick, o.fault, o.deadline = false, "kill-rank", 30*time.Second
	})
	start := time.Now()
	r := pa.runRep(findWorkload("stream_tcp"), false)
	if r.Fail != failRunError || r.failed() != r.Attempted {
		t.Errorf("fail = %q (%s), failed %d of %d; want %q and all", r.Fail, r.Detail, r.failed(), r.Attempted, failRunError)
	}
	if time.Since(start) > 20*time.Second {
		t.Errorf("failure took %v to surface", time.Since(start))
	}
}

// The rendezvous port must be one the kernel never hands to a port-0
// bind: the rank processes' mesh listeners are such binds, and one that
// drew the rendezvous port would stall the handshake until it timed out.
func TestRendezvousPortIsNotEphemeral(t *testing.T) {
	lo, hi, ok := ephemeralRange()
	if !ok {
		t.Skip("no /proc/sys/net/ipv4/ip_local_port_range on this host")
	}
	addr, err := rendezvousAddr()
	if err != nil {
		t.Fatal(err)
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := strconv.Atoi(port); p < 1024 || (p >= lo && p <= hi) {
		t.Errorf("rendezvous port %d is privileged or inside the ephemeral range %d..%d", p, lo, hi)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rendezvous address %s is not free: %v", addr, err)
	}
	ln.Close()
}

func TestVerifyCatchesWrongOutputs(t *testing.T) {
	pa := testParent(t, nil)
	w := findWorkload("stream_local")
	ops := w.ops(true)
	good := []*procResult{{Sends: ops, Delivered: ops, GenSum: 7, RecvSum: 7}}
	if v, _ := pa.verify(w, good); v != ops {
		t.Errorf("good outputs verified %d of %d", v, ops)
	}
	lost := []*procResult{{Sends: ops, Delivered: ops - 5, GenSum: 7, RecvSum: 6}}
	if v, why := pa.verify(w, lost); v != ops-5 || why == "" {
		t.Errorf("5 undelivered messages: verified %d (%q), want %d", v, why, ops-5)
	}
	corrupt := []*procResult{{Sends: ops, Delivered: ops, GenSum: 7, RecvSum: 8}}
	if v, why := pa.verify(w, corrupt); v != 0 || why == "" {
		t.Errorf("checksum mismatch: verified %d (%q), want 0", v, why)
	}
	wc := findWorkload("wordcount_local")
	ref := pa.wordRef(uint64(wc.sizeFor(true)))
	if v, _ := pa.verify(wc, []*procResult{{Distinct: ref.distinct, Digest: ref.digest}}); v != wc.ops(true) {
		t.Errorf("reference digest rejected")
	}
	if v, _ := pa.verify(wc, []*procResult{{Distinct: ref.distinct, Digest: ref.digest + 1}}); v != 0 {
		t.Errorf("wrong digest accepted")
	}
}

// A counter the workload's runtime path should publish and the report
// does not carry is named, not read as 0. A run with no mailbox stands
// in for a runtime that renamed the lazy mailbox's flush counters.
func TestMissingCounterIsNamed(t *testing.T) {
	w := findWorkload("stream_local")
	rep, err := transport.Run(transport.NewConfig(w.topo(), transport.WithWire(transport.LocalWire{})),
		func(*transport.Proc) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	res := &procResult{}
	fillFromReport(res, rep, w)
	if !slices.Contains(res.Missing, "ygm.flush.capacity") {
		t.Errorf("missing = %v, want ygm.flush.capacity among them", res.Missing)
	}
	for _, name := range res.Missing {
		if name == "inbox.parks" || name == "sched.handoffs" {
			t.Errorf("%s reported missing: the first is published by every run, the second is not expected without the scheduler", name)
		}
	}
}
