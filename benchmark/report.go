package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// host is recorded with every result so numbers from different boxes
// are not compared by accident.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h host) line() string {
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  kernel %s  commit %s",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Commit)
}

// costStackWorkloads are the workloads whose send loop and handler the
// benchmark owns, so their CPU can be attributed span by span.
var costStackWorkloads = []string{"stream_local", "wordcount_local", "stream_tcp"}

// costStacks renders, for each cost-stack workload, cpu_ns_per_op
// attributed to the layers the traced run can see, with the residual
// stated rather than assumed away. Rows are span self times summed over
// ranks and divided by the operations: wall time inside the layer, which
// equals CPU only while the rank holds a core — with 4 ranks on 2 cores
// nothing is uncontended, so the rows need not add up to the CPU figure
// and the residual can be negative. What no span can see is the part of
// Send that dispatches arrivals: Send polls the inbox inline, a rank
// coming back from a descheduled stretch works off its whole backlog
// inside one Send call, and from outside that is indistinguishable from
// the call itself being descheduled — such sampled blocks are cut (see
// preemptCutoff), so that work lands in the residual. The ladder's
// one-way rungs, run with a core per rank, give the cross-check.
func costStacks(sr *suiteResult) string {
	var b strings.Builder
	b.WriteString("## cost stack (ns per op)\n")
	for _, name := range costStackWorkloads {
		var wr *workloadResult
		for _, cand := range sr.Workloads {
			if cand.Name == name {
				wr = cand
			}
		}
		if wr == nil || wr.Traced == nil || wr.Traced.Fail != "" {
			continue
		}
		cpu := wr.Summary["cpu_ns_per_op"].Median
		ops := float64(wr.Traced.Attempted)
		agg := wr.Traced.agg
		perOp := func(seconds float64) float64 { return seconds * 1e9 / ops }
		rows := []struct {
			layer string
			ns    float64
		}{
			{"app.gen (rng, key formatting)", perOp(agg["app.gen"].Total)},
			{"ygm Send / container AsyncIncr, self (queueing, plus the arrivals its inline poll dispatches)", perOp(agg["app.send"].Self)},
			{"ygm comm context + drain, self (pack, flush, decode, dispatch, handlers; transport inside)", perOp(agg["lazy.commctx"].Self + agg["lazy.drain"].Self)},
			{"ygm WaitEmpty, self, less time parked in receives", perOp(max(0, agg["lazy.waitempty"].Self-wr.Traced.Metrics["transport.wait_s"]))},
			{"container queries, self (Size, TopK, ForAll)", perOp(agg["app.query"].Self)},
			{"collective", perOp(wr.Layers["collective.time_s"])},
		}
		var sum float64
		fmt.Fprintf(&b, "\n### %s — cpu_ns_per_op %.1f\n\n| layer | ns/op | share |\n|---|---:|---:|\n", name, cpu)
		for _, r := range rows {
			if r.ns == 0 {
				continue
			}
			sum += r.ns
			fmt.Fprintf(&b, "| %s | %.1f | %.0f%% |\n", r.layer, r.ns, 100*r.ns/cpu)
		}
		fmt.Fprintf(&b, "| **attributed** | %.1f | %.0f%% |\n", sum, 100*sum/cpu)
		fmt.Fprintf(&b, "| **residual** (cpu_ns_per_op − attributed) | %.1f | %.0f%% |\n", cpu-sum, 100*(cpu-sum)/cpu)
		rung := "transport.local_stream_ns_per_pkt"
		if strings.HasSuffix(name, "_tcp") {
			rung = "transport.tcp_stream_ns_per_pkt"
		}
		pkts := wr.Layers["transport.pkts_local"] + wr.Layers["transport.pkts_remote"]
		// The rung is wall ÷ packets of both ranks, each on its own core:
		// CPU per packet is twice that.
		est := 2 * sr.Ladder[rung] * pkts / ops
		fmt.Fprintf(&b, "\ninside those rows: transport ≈ %.1f ns/op (%s %.0f ns × 2 busy ranks × %.4f packets/op)",
			est, rung, sr.Ladder[rung], pkts/ops)
		if h, ok := wr.Layers["ygm.handler_ns_per_msg"]; ok {
			fmt.Fprintf(&b, "; handlers ≈ %.1f ns/op (ygm.handler_ns_per_msg, one delivery per op)", h)
		}
		b.WriteString("\n")
		if strings.HasPrefix(name, "stream_") {
			hops := wr.Layers["ygm.hops_per_msg"]
			fmt.Fprintf(&b, "\nladder cross-check, a core per rank: (ygm.send_side_ns_per_msg %.1f + ygm.recv_side_ns_per_msg %.1f) × ygm.hops_per_msg %.2f = %.1f ns/op\n",
				sr.Ladder["ygm.send_side_ns_per_msg"], sr.Ladder["ygm.recv_side_ns_per_msg"], hops,
				(sr.Ladder["ygm.send_side_ns_per_msg"]+sr.Ladder["ygm.recv_side_ns_per_msg"])*hops)
		}
	}
	return b.String()
}
