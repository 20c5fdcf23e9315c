package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Failure reasons a repetition can end with. A failed repetition fails
// every operation it attempted and did not verify.
const (
	failDeadline = "deadline"   // the child outlived its wall deadline and was killed
	failMemCap   = "mem_cap"    // the child hit its address-space cap
	failRunError = "run_error"  // transport.Run returned an error (peer death, deadlock, panic)
	failExit     = "child_exit" // the child exited non-zero without saying why
	failNoResult = "no_result"  // the child exited 0 but left no readable result
	failMismatch = "mismatch"   // outputs did not match the reference
	failCounter  = "no_counter" // Report.Metrics() lacks a counter this workload's runtime path publishes
)

// parent spawns child processes and turns what they report into
// metrics. Every repetition is a fresh process (re-exec of this
// binary), so no repetition inherits a warmed heap, pooled buffers or a
// grown scheduler from the one before.
type parent struct {
	exe      string
	outDir   string
	seed     int64
	quick    bool
	deadline time.Duration
	memCapMB int
	fault    string
	seq      int

	wordRefs map[uint64]wordRef
	bfsRefs  map[int]bfsRef
}

func newParent(o *options, outDir string) (*parent, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &parent{
		exe: exe, outDir: outDir, seed: o.seed, quick: o.quick,
		deadline: o.deadline, memCapMB: o.memCapMB, fault: o.fault,
		wordRefs: make(map[uint64]wordRef), bfsRefs: make(map[int]bfsRef),
	}, nil
}

// spawn runs one child to completion under the deadline and returns the
// result of each of its processes (one, or one per rank under tcp).
func (pa *parent) spawn(name, wire string, traced bool) (procs []*procResult, wall time.Duration, fail, detail string) {
	pa.seq++
	base := filepath.Join(pa.outDir, fmt.Sprintf("tmp-%d-%d.json", os.Getpid(), pa.seq))
	args := []string{
		"-child", "-workload", name,
		"-seed", fmt.Sprint(pa.seed),
		"-result", base,
		"-memcap-mb", fmt.Sprint(pa.memCapMB),
	}
	if pa.quick {
		args = append(args, "-quick")
	}
	if traced {
		args = append(args, "-traced")
	}
	if pa.fault != "" {
		args = append(args, "-fault", pa.fault)
	}
	files := []string{base}
	args = append(args, "-wire="+wire)
	if wire == "tcp" {
		// The child becomes the launcher: one process per rank, with
		// every other flag forwarded (launchRanks).
		args = append(args, "-spawn")
		files = []string{rankResultPath(base, 0), rankResultPath(base, 1)}
	}
	defer func() {
		for _, f := range files {
			os.Remove(f)
		}
	}()

	var out bytes.Buffer
	cmd := exec.Command(pa.exe, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	// Own process group, so the deadline kills the launcher and its
	// rank processes together.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, failExit, err.Error()
	}
	killed := make(chan struct{})
	timer := time.AfterFunc(pa.deadline, func() {
		close(killed)
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	})
	err := cmd.Wait()
	wall = time.Since(start)
	if !timer.Stop() {
		<-killed
		// Make sure no rank process outlives the repetition.
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		return nil, wall, failDeadline, fmt.Sprintf("killed after %v", pa.deadline)
	}
	for _, f := range files {
		data, rerr := os.ReadFile(f)
		if rerr != nil {
			continue
		}
		var pr procResult
		if json.Unmarshal(data, &pr) == nil {
			procs = append(procs, &pr)
		}
	}
	tail := lastLines(out.String(), 6)
	if err != nil {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // ranks a dead launcher left behind
		switch {
		case oomLine(out.String()) != "":
			return nil, wall, failMemCap, oomLine(out.String())
		case anyRunError(procs) != "":
			return nil, wall, failRunError, anyRunError(procs)
		case strings.Contains(out.String(), "transport:") || strings.Contains(out.String(), "benchmark launcher: rank"):
			return nil, wall, failRunError, tail
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, wall, failExit, fmt.Sprintf("%v: %s", err, tail)
		}
		return nil, wall, failExit, err.Error()
	}
	if len(procs) != len(files) {
		return nil, wall, failNoResult, tail
	}
	return procs, wall, "", ""
}

// oomLine returns the line in which the Go runtime (or the kernel, via
// a failed mmap) reported that the address-space cap was hit.
func oomLine(output string) string {
	for _, line := range strings.Split(output, "\n") {
		if strings.Contains(line, "out of memory") || strings.Contains(line, "cannot allocate memory") {
			return strings.TrimSpace(line)
		}
	}
	return ""
}

func anyRunError(procs []*procResult) string {
	for _, p := range procs {
		if p.Err != "" {
			return p.Err
		}
	}
	return ""
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// rep is one repetition of one workload, reduced to metrics.
type rep struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced,omitempty"`
	Attempted uint64             `json:"attempted"`
	Verified  uint64             `json:"verified"`
	Fail      string             `json:"fail,omitempty"`
	Detail    string             `json:"detail,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Absent names metrics this repetition could not measure, with the
	// reason.
	Absent map[string]string `json:"absent,omitempty"`

	timedS float64
	digest uint64
	procs  []*procResult
	agg    map[string]SpanAgg // traced repetitions: spans summed over processes
}

func (r *rep) failed() uint64 { return r.Attempted - r.Verified }

// runRep runs one repetition of w in a fresh child and checks its
// outputs.
func (pa *parent) runRep(w *workload, traced bool) *rep {
	r := &rep{
		Workload: w.Name, Traced: traced, Attempted: w.ops(pa.quick),
		Metrics: make(map[string]float64), Absent: make(map[string]string),
	}
	procs, wall, fail, detail := pa.spawn(w.Name, w.wire, traced)
	if fail != "" {
		r.Fail, r.Detail = fail, detail
		return r
	}
	r.procs = procs
	r.Verified, r.Detail = pa.verify(w, procs)
	if r.Verified != r.Attempted {
		r.Fail = failMismatch
	}
	for _, p := range procs {
		if len(p.Missing) > 0 && r.Fail == "" {
			// The per-layer metrics built on it would read 0, not fail:
			// nothing this repetition measured can be trusted by name.
			r.Fail, r.Verified = failCounter, 0
			r.Detail = "missing from Report.Metrics(): " + strings.Join(p.Missing, ", ")
		}
	}
	r.measure(w, wall)
	return r
}

// verify compares a repetition's outputs with the references and
// returns how many of its operations are thereby known good.
func (pa *parent) verify(w *workload, procs []*procResult) (verified uint64, detail string) {
	ops := w.ops(pa.quick)
	var sends, delivered, gen, recv uint64
	for _, p := range procs {
		sends, delivered = sends+p.Sends, delivered+p.Delivered
		gen, recv = gen+p.GenSum, recv+p.RecvSum
	}
	lead := procs[0]
	switch w.kind {
	case kStream, kQuiesce:
		want := ops
		if w.kind == kQuiesce {
			want = ops * quiesceBurst * uint64(w.nodes*w.cores)
		}
		switch {
		case sends != want:
			return 0, fmt.Sprintf("sent %d messages, want %d", sends, want)
		case delivered != sends:
			if w.kind == kStream && delivered < sends {
				return delivered, fmt.Sprintf("delivered %d of %d messages", delivered, sends)
			}
			return 0, fmt.Sprintf("delivered %d of %d messages", delivered, sends)
		case gen != recv:
			return 0, fmt.Sprintf("payload checksum %#x, generator's %#x", recv, gen)
		}
	case kWordcount:
		ref := pa.wordRef(uint64(w.sizeFor(pa.quick)))
		if lead.Distinct != ref.distinct || lead.Digest != ref.digest {
			return 0, fmt.Sprintf("distinct %d digest %#x, serial reference %d %#x",
				lead.Distinct, lead.Digest, ref.distinct, ref.digest)
		}
	case kBFS:
		ref := pa.bfsRef(w)
		var hash uint64
		for _, p := range procs {
			hash += p.DistHash
		}
		if lead.Visited != ref.visited || lead.Levels != ref.levels || hash != ref.distHash {
			return 0, fmt.Sprintf("visited %d levels %d dist hash %#x, sequential oracle %d %d %#x",
				lead.Visited, lead.Levels, hash, ref.visited, ref.levels, ref.distHash)
		}
	}
	return ops, ""
}

func (pa *parent) wordRef(words uint64) wordRef {
	ref, ok := pa.wordRefs[words]
	if !ok {
		ref = serialWordcount(pa.seed, words)
		pa.wordRefs[words] = ref
	}
	return ref
}

func (pa *parent) bfsRef(w *workload) bfsRef {
	scale := w.sizeFor(pa.quick)
	ref, ok := pa.bfsRefs[scale]
	if !ok {
		world := w.nodes * w.cores
		ref = serialBFS(bfsConfig(scale, world, pa.seed), world)
		pa.bfsRefs[scale] = ref
	}
	return ref
}

// measure fills the metrics a repetition supports: the end-to-end and
// scoped ones and the counter-based per-layer ones always, the
// span-based ones when it was traced.
func (r *rep) measure(w *workload, childWall time.Duration) {
	ops := float64(r.Attempted)
	var sum procResult
	var rssKiB int64
	var util float64
	for _, p := range r.procs {
		r.timedS = max(r.timedS, p.TimedS)
		sum.CPUS += p.CPUS
		rssKiB += p.MaxRSSKiB
		sum.RunStartS, sum.RunFinishS = max(sum.RunStartS, p.RunStartS), max(sum.RunFinishS, p.RunFinishS)
		sum.BookkeepS = max(sum.BookkeepS, p.BookkeepS)
		sum.Delivered += p.Delivered
		sum.SimS = max(sum.SimS, p.SimS)
		addMailbox(&sum.Mailbox, p.Mailbox)
		sum.FlushCap, sum.FlushAll = sum.FlushCap+p.FlushCap, sum.FlushAll+p.FlushAll
		sum.Mallocs, sum.AllocBytes = sum.Mallocs+p.Mallocs, sum.AllocBytes+p.AllocBytes
		sum.GCCycles, sum.GCPauseMS = sum.GCCycles+p.GCCycles, sum.GCPauseMS+p.GCPauseMS
		sum.SysCR, sum.SysCW = sum.SysCR+p.SysCR, sum.SysCW+p.SysCW
		sum.Totals.LocalMsgs += p.Totals.LocalMsgs
		sum.Totals.RemoteMsgs += p.Totals.RemoteMsgs
		sum.Totals.RemoteBytes += p.Totals.RemoteBytes
		sum.Totals.DataLocalMsgs += p.Totals.DataLocalMsgs
		sum.Totals.DataRemoteMsgs += p.Totals.DataRemoteMsgs
		sum.BusyS, sum.WaitS = sum.BusyS+p.BusyS, sum.WaitS+p.WaitS
		util += p.MakespanS * float64(p.Ranks)
		sum.InboxParks, sum.InboxSpinHits = sum.InboxParks+p.InboxParks, sum.InboxSpinHits+p.InboxSpinHits
		sum.InboxPushes, sum.InboxSuppr = sum.InboxPushes+p.InboxPushes, sum.InboxSuppr+p.InboxSuppr
		sum.InboxMaxDepth = max(sum.InboxMaxDepth, p.InboxMaxDepth)
		sum.SchedHandoffs += p.SchedHandoffs
		sum.SchedUtil, sum.SchedReadyHWM = max(sum.SchedUtil, p.SchedUtil), max(sum.SchedReadyHWM, p.SchedReadyHWM)
	}
	lead := r.procs[0]
	r.digest = lead.Digest
	m := r.Metrics

	m["ops_per_s"] = ops / r.timedS
	m["cpu_ns_per_op"] = sum.CPUS * 1e9 / ops
	m["peak_rss_mb"] = float64(rssKiB) / 1024
	// Everything a user pays around the timed region: process start,
	// rendezvous, world and mailbox construction, teardown, exit — the
	// child's wall as the parent saw it, less the timed region and the
	// benchmark's own bookkeeping.
	m["setup_s"] = childWall.Seconds() - r.timedS - sum.BookkeepS

	if w.wire == "sim" {
		m["sim_s"] = sum.SimS
	} else {
		r.Absent["sim_s"] = "needs the sim wire (bfs_sim_2k)"
	}
	if w.kind == kQuiesce {
		r.percentiles("quiesce", lead.Cycle)
		r.percentiles("deliver", lead.Deliver)
	} else {
		for _, name := range []string{"quiesce_p50_us", "quiesce_p99_us", "deliver_p50_us", "deliver_p99_us"} {
			r.Absent[name] = "needs the stamped quiesce cycle (quiesce_local)"
		}
	}

	mb := sum.Mailbox
	m["ygm.flushes"] = float64(mb.Flushes)
	if sum.FlushAll > 0 {
		m["ygm.flush_capacity_share"] = float64(sum.FlushCap) / float64(sum.FlushAll)
	} else {
		r.Absent["ygm.flush_capacity_share"] = "flush causes are counted by the lazy mailbox only"
	}
	m["ygm.records_per_pkt"] = ratio(float64(mb.HopsSent), float64(sum.Totals.DataLocalMsgs+sum.Totals.DataRemoteMsgs))
	m["ygm.hops_per_msg"] = ratio(float64(mb.HopsSent), float64(mb.Sends))
	m["ygm.term_generations"] = float64(mb.Generations)
	m["ygm.term_generations_per_waitempty"] = ratio(float64(mb.Generations), float64(lead.WaitEmpties))
	m["ygm.empty_round_msgs"] = float64(mb.EmptyRoundMsgs)
	m["transport.busy_share"] = ratio(sum.BusyS, util)
	m["transport.wait_s"] = sum.WaitS
	m["transport.pkts_local"] = float64(sum.Totals.LocalMsgs)
	m["transport.pkts_remote"] = float64(sum.Totals.RemoteMsgs)
	m["transport.bytes_per_remote_pkt"] = ratio(float64(sum.Totals.RemoteBytes), float64(sum.Totals.RemoteMsgs))
	m["transport.inbox_parks"] = float64(sum.InboxParks)
	m["transport.inbox_spin_hits"] = float64(sum.InboxSpinHits)
	m["transport.wakeups_suppressed_ratio"] = ratio(float64(sum.InboxSuppr), float64(sum.InboxPushes))
	m["transport.inbox_max_depth"] = float64(sum.InboxMaxDepth)
	m["transport.run_start_s"] = sum.RunStartS
	m["transport.run_finish_s"] = sum.RunFinishS
	if w.scheduled() {
		m["sched.handoffs"] = float64(sum.SchedHandoffs)
		m["sched.worker_utilization"] = sum.SchedUtil
		m["sched.ready_depth_hwm"] = sum.SchedReadyHWM
	} else {
		for _, name := range []string{"sched.handoffs", "sched.worker_utilization", "sched.ready_depth_hwm"} {
			r.Absent[name] = "the M:N scheduler runs only above 1024 ranks (bfs_sim_2k)"
		}
	}
	switch {
	case w.wire != "tcp":
		r.Absent["wire.syscw_per_pkt"] = "no socket under this wire; tcp workloads only"
		r.Absent["wire.syscr_per_pkt"] = "no socket under this wire; tcp workloads only"
	case !allIOOK(r.procs):
		r.Absent["wire.syscw_per_pkt"] = "/proc/self/io unreadable on this host"
		r.Absent["wire.syscr_per_pkt"] = "/proc/self/io unreadable on this host"
	default:
		m["wire.syscw_per_pkt"] = ratio(float64(sum.SysCW), float64(sum.Totals.RemoteMsgs))
		m["wire.syscr_per_pkt"] = ratio(float64(sum.SysCR), float64(sum.Totals.RemoteMsgs))
	}
	m["go.allocs_per_kop"] = float64(sum.Mallocs) * 1e3 / ops
	m["go.alloc_bytes_per_op"] = float64(sum.AllocBytes) / ops
	m["go.gc_cycles"] = float64(sum.GCCycles)
	m["go.gc_pause_ms"] = sum.GCPauseMS

	if !r.Traced {
		return
	}
	r.agg = mergeAgg(r.procs)
	agg := r.agg
	m["app.gen_ns_per_op"] = agg["app.gen"].Total * 1e9 / ops
	m["ygm.send_self_ns_per_op"] = agg["app.send"].Self * 1e9 / ops
	if w.kind == kStream || w.kind == kQuiesce {
		var h float64
		for _, p := range r.procs {
			h += p.HandlerNS / float64(len(r.procs))
		}
		m["ygm.handler_ns_per_msg"] = h
	} else {
		r.Absent["ygm.handler_ns_per_msg"] = "the handler is installed inside the program (container engine, apps.BFS) and cannot be called from outside"
	}
	switch w.kind {
	case kQuiesce:
		r.Absent["app.gen_ns_per_op"] = "the input is the time stamp; its cost is inside ygm.send_self_ns_per_op"
	case kBFS:
		r.Absent["app.gen_ns_per_op"] = "apps.BFS generates its edges internally"
		r.Absent["ygm.send_self_ns_per_op"] = "apps.BFS calls Send internally"
	}
	m["ygm.waitempty_self_s"] = agg["lazy.waitempty"].Self + agg["round.waitempty"].Self
	m["ygm.commctx_s"] = agg["lazy.commctx"].Total
	m["ygm.drain_s"] = agg["lazy.drain"].Total
	m["ygm.exchange_s"] = agg["round.exchange"].Total
	m["collective.time_s"] = agg["coll.barrier"].Total + agg["coll.alltoallv"].Total + agg["app.collective"].Self
	m["collective.calls"] = agg["coll.barrier"].Count + agg["coll.alltoallv"].Count + agg["app.collective"].Count
}

func allIOOK(procs []*procResult) bool {
	for _, p := range procs {
		if !p.IOOK {
			return false
		}
	}
	return true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentiles reports p50 and p99 of one latency sample, p99 only when
// enough samples lie beyond it.
func (r *rep) percentiles(prefix string, l latency) {
	r.Metrics[prefix+"_p50_us"] = l.P50
	if l.P99OK {
		r.Metrics[prefix+"_p99_us"] = l.P99
	} else {
		r.Absent[prefix+"_p99_us"] = fmt.Sprintf("%d samples leave fewer than %d beyond p99", l.N, minBeyond)
	}
}

func mergeAgg(procs []*procResult) map[string]SpanAgg {
	out := make(map[string]SpanAgg)
	for _, p := range procs {
		for name, a := range p.Agg {
			s := out[name]
			s.Count, s.Total, s.Self, s.Cut = s.Count+a.Count, s.Total+a.Total, s.Self+a.Self, s.Cut+a.Cut
			out[name] = s
		}
	}
	return out
}

// traceFile is what a traced repetition leaves in out/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Clock    string             `json:"clock"`
	Agg      map[string]SpanAgg `json:"aggregates"`
	Dropped  int                `json:"spans_dropped"`
	Spans    []Span             `json:"spans"`
}

func (pa *parent) writeTrace(r *rep) error {
	tf := traceFile{
		Workload: r.Workload, Seed: pa.seed,
		Clock: "host seconds since the rank's process started (simulated seconds on the sim wire); sampled spans carry weight 64",
		Agg:   r.agg,
	}
	for _, p := range r.procs {
		tf.Spans = appendSpans(tf.Spans, p.Spans)
		tf.Dropped += p.SpansDropped
	}
	return writeJSON(filepath.Join(pa.outDir, r.Workload+".trace.json"), tf)
}

// runLadder runs the ladder's children and merges their rungs; a rung
// no child reported is absent, with the children's failures as the
// reason.
func (pa *parent) runLadder() (vals map[string]float64, absent map[string]string) {
	vals, absent = make(map[string]float64), make(map[string]string)
	var failures []string
	for _, child := range [][2]string{{ladderName, "local"}, {ladderTCPName, "tcp"}} {
		procs, _, fail, detail := pa.spawn(child[0], child[1], false)
		if fail != "" {
			failures = append(failures, fmt.Sprintf("%s: %s: %s", child[0], fail, detail))
			continue
		}
		for k, v := range procs[0].Ladder {
			vals[k] = v
		}
	}
	reps := 5
	if pa.quick {
		reps = 2
	}
	var walls []float64
	for i := 0; i < reps; i++ {
		_, wall, fail, detail := pa.spawn(emptyTCPName, "tcp", false)
		if fail != "" {
			failures = append(failures, fmt.Sprintf("%s: %s: %s", emptyTCPName, fail, detail))
			break
		}
		walls = append(walls, wall.Seconds()*1e3)
	}
	if len(walls) == reps {
		vals["transport.tcp_setup_ms_w2"] = median(walls)
	}
	for _, d := range groupB {
		if _, ok := vals[d.Name]; !ok {
			absent[d.Name] = "rung not reported; " + strings.Join(failures, "; ")
		}
	}
	return vals, absent
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
