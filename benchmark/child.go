package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// procStart anchors every host timestamp of a process: spans, region
// boundaries and the payload stamps of the quiesce workload are all
// nanoseconds since this instant.
var procStart = time.Now()

func sinceStart() time.Duration { return time.Since(procStart) }

// snapshot is the process-wide state read at a timed region's
// boundaries; per-layer metrics are differences of two snapshots.
type snapshot struct {
	cpu          time.Duration // user+sys, getrusage
	mallocs      uint64
	allocBytes   uint64
	gcCycles     uint32
	gcPause      time.Duration
	syscr, syscw uint64 // /proc/self/io read and write syscalls
	ioOK         bool
}

func takeSnapshot() snapshot {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	s.gcCycles, s.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)
	s.syscr, s.syscw, s.ioOK = readProcIO()
	return s
}

// readProcIO reads the process's read/write syscall counts; ok is false
// where /proc/self/io is unreadable.
func readProcIO() (syscr, syscw uint64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	var seen int
	for _, line := range bytes.Split(data, []byte("\n")) {
		name, val, found := bytes.Cut(line, []byte(": "))
		if !found {
			continue
		}
		n, err := strconv.ParseUint(string(bytes.TrimSpace(val)), 10, 64)
		if err != nil {
			continue
		}
		switch string(name) {
		case "syscr":
			syscr, seen = n, seen+1
		case "syscw":
			syscw, seen = n, seen+1
		}
	}
	return syscr, syscw, seen == 2
}

func maxRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// procResult is what one child process writes for the parent: raw facts
// about its ranks, which the parent sums over processes, checks against
// the references and turns into metrics.
type procResult struct {
	Err string `json:"err,omitempty"`

	Ranks int `json:"ranks"`
	// TimedS is the timed region on this process's clock: first rank in
	// to last rank out.
	TimedS     float64 `json:"timed_s"`
	CPUS       float64 `json:"cpu_s"`
	MaxRSSKiB  int64   `json:"max_rss_kib"`
	RunStartS  float64 `json:"run_start_s"`  // transport.Run called → first body statement
	RunFinishS float64 `json:"run_finish_s"` // last body returned → transport.Run returned
	// BookkeepS is the benchmark's own work after transport.Run returned
	// (sorting latency samples, merging spans), which is not set-up.
	BookkeepS   float64       `json:"bookkeep_s"`
	runReturned time.Duration // since process start

	Sends     uint64 `json:"sends"`
	Delivered uint64 `json:"delivered"`
	GenSum    uint64 `json:"gen_sum"`
	RecvSum   uint64 `json:"recv_sum"`

	Distinct uint64 `json:"distinct,omitempty"`
	Digest   uint64 `json:"digest,omitempty"`

	Visited  uint64  `json:"visited,omitempty"`
	Levels   int     `json:"levels,omitempty"`
	DistHash uint64  `json:"dist_hash,omitempty"`
	SimS     float64 `json:"sim_s,omitempty"`

	Cycle   latency `json:"cycle_us"`   // quiesce: rank 0's cycles
	Deliver latency `json:"deliver_us"` // quiesce: send→handler, all ranks

	HandlerNS   float64   `json:"handler_ns,omitempty"` // traced runs: mean over hosted ranks
	Mailbox     ygm.Stats `json:"mailbox"`
	WaitEmpties uint64    `json:"wait_empties"` // on one rank
	FlushCap    uint64    `json:"flush_capacity"`
	FlushAll    uint64    `json:"flush_all_causes"`

	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseMS  float64 `json:"gc_pause_ms"`
	SysCR      uint64  `json:"syscr"`
	SysCW      uint64  `json:"syscw"`
	IOOK       bool    `json:"io_ok"`

	Totals        transport.Totals `json:"totals"`
	BusyS         float64          `json:"busy_s"`
	WaitS         float64          `json:"wait_s"`
	MakespanS     float64          `json:"makespan_s"`
	InboxParks    uint64           `json:"inbox_parks"`
	InboxSpinHits uint64           `json:"inbox_spin_hits"`
	InboxPushes   uint64           `json:"inbox_pushes"`
	InboxSuppr    uint64           `json:"inbox_wakeups_suppressed"`
	InboxMaxDepth int              `json:"inbox_max_depth"`
	// Missing names the counters and gauges this workload's runtime path
	// should have published and Report.Metrics() did not carry.
	Missing       []string `json:"missing_counters,omitempty"`
	SchedHandoffs uint64   `json:"sched_handoffs"`
	SchedUtil     float64  `json:"sched_worker_utilization"`
	SchedReadyHWM float64  `json:"sched_ready_depth_hwm"`

	Agg          map[string]SpanAgg `json:"agg,omitempty"`
	Spans        []Span             `json:"spans,omitempty"`
	SpansDropped int                `json:"spans_dropped,omitempty"`

	// Ladder carries the rung values of the tcp ladder child.
	Ladder map[string]float64 `json:"ladder,omitempty"`
}

// latency is one repetition's latency sample reduced to the reported
// percentiles; P99OK says whether enough samples lie beyond p99.
type latency struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P99OK bool    `json:"p99_ok"`
}

func summarizeLatency(us []float64) latency {
	if len(us) == 0 {
		return latency{}
	}
	sort.Float64s(us)
	l := latency{N: len(us)}
	l.P50, _ = percentile(us, 50)
	l.P99, l.P99OK = percentile(us, 99)
	return l
}

// childMain runs one repetition of one workload in this process (or,
// under -wire=tcp -spawn, forks it into rank processes: see launchRanks)
// and writes the result file. The exit status is 0 only when
// transport.Run returned no error.
func childMain(f *options) int {
	topo, err := childTopo(f.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	if err := f.wires.Validate(topo.WorldSize()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	if f.wires.Wire == "tcp" && f.wires.Spawn {
		if err := launchRanks(f, topo.WorldSize()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			return 1
		}
		return 0
	}
	if err := setMemCap(f.memCapMB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: memory cap:", err)
		return 2
	}
	wire, err := f.wires.NewWire()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	var res *procResult
	switch f.workload {
	case ladderName:
		res = runLadder(f)
	case ladderTCPName:
		res = runLadderTCP(topo, wire, f)
	case emptyTCPName:
		res = runEmpty(topo, wire)
	default:
		res = runWorkload(findWorkload(f.workload), wire, f)
	}
	res.MaxRSSKiB = maxRSSKiB()
	if res.runReturned > 0 {
		res.BookkeepS = (sinceStart() - res.runReturned).Seconds()
	}
	path := f.result
	if f.wires.Wire == "tcp" {
		path = rankResultPath(path, f.wires.RankID)
	}
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	if res.Err != "" {
		fmt.Fprintln(os.Stderr, "benchmark child:", res.Err)
		return 1
	}
	return 0
}

func rankResultPath(base string, rank int) string { return fmt.Sprintf("%s.rank%d", base, rank) }

func childTopo(name string) (machine.Topology, error) {
	switch name {
	case ladderName:
		return machine.New(1, 1), nil
	case ladderTCPName, emptyTCPName:
		return machine.New(2, 1), nil
	}
	w := findWorkload(name)
	if w == nil {
		return machine.Topology{}, fmt.Errorf("unknown workload %q", name)
	}
	return w.topo(), nil
}

// setMemCap bounds the child's address space, so a workload that blows
// up (the graph500 SSSP kernel reached 14.7 GB while this benchmark was
// being sized) dies with an out-of-memory fault the parent can name
// instead of taking the host down with it.
func setMemCap(mb int) error {
	if mb <= 0 {
		return nil
	}
	lim := syscall.Rlimit{Cur: uint64(mb) << 20, Max: uint64(mb) << 20}
	return syscall.Setrlimit(syscall.RLIMIT_AS, &lim)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runWorkload executes one repetition and gathers what the run exposes:
// the body's slots, the leader's snapshots, transport.Report and the
// tracer's aggregates.
func runWorkload(w *workload, wire transport.Wire, f *options) *procResult {
	world := w.nodes * w.cores
	c := &run{
		w: w, size: w.sizeFor(f.quick), seed: f.seed,
		slots: make([]rankSlot, world),
	}
	local := wire.LocalRanks(w.topo())
	if local == nil {
		for r := 0; r < world; r++ {
			local = append(local, machine.Rank(r))
		}
	}
	c.leader = int(local[0])
	opts := []transport.ConfigOption{transport.WithSeed(f.seed), transport.WithWire(wire)}
	if f.traced {
		c.tr = newTracer(world, w.wire == "sim")
		opts = append(opts, transport.WithTrace(c.tr))
	}
	body := c.body
	if f.fault == "kill-rank" && c.leader == world-1 {
		// Fault drill: the last rank's process dies mid-stream, as a
		// killed peer would.
		body = func(p *transport.Proc) error {
			time.AfterFunc(20*time.Millisecond, func() { os.Exit(3) })
			return c.body(p)
		}
	}
	runCalled := sinceStart()
	rep, err := transport.Run(transport.NewConfig(w.topo(), opts...), body)
	runReturned := sinceStart()

	res := &procResult{Ranks: len(local), runReturned: runReturned}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	var deliver []float64
	first, last := time.Duration(1<<62), time.Duration(0)
	firstBody := time.Duration(1 << 62)
	for _, r := range local {
		s := &c.slots[r]
		first, last = min(first, s.t0), max(last, s.t1)
		firstBody = min(firstBody, s.bodyStart)
		res.Sends += s.sends
		res.Delivered += s.delivered
		res.GenSum += s.genSum
		res.RecvSum += s.recvSum
		res.DistHash += s.distHash
		res.SimS = max(res.SimS, s.simT)
		res.HandlerNS += s.handlerNS / float64(len(local))
		deliver = append(deliver, s.deliverUS...)
		addMailbox(&res.Mailbox, s.mailbox)
	}
	lead := &c.slots[c.leader]
	res.Distinct, res.Digest = lead.distinct, lead.digest
	res.Visited, res.Levels = lead.visited, lead.levels
	res.WaitEmpties = lead.waitEmpties
	res.Cycle, res.Deliver = summarizeLatency(c.slots[0].cycleUS), summarizeLatency(deliver)
	res.TimedS = (last - first).Seconds()
	res.RunStartS = (firstBody - runCalled).Seconds()
	res.RunFinishS = (runReturned - last).Seconds()

	res.CPUS = (c.end.cpu - c.start.cpu).Seconds()
	res.Mallocs = c.end.mallocs - c.start.mallocs
	res.AllocBytes = c.end.allocBytes - c.start.allocBytes
	res.GCCycles = c.end.gcCycles - c.start.gcCycles
	res.GCPauseMS = float64(c.end.gcPause-c.start.gcPause) / 1e6
	res.SysCR, res.SysCW = c.end.syscr-c.start.syscr, c.end.syscw-c.start.syscw
	res.IOOK = c.start.ioOK && c.end.ioOK

	fillFromReport(res, rep, w)
	if c.tr != nil {
		res.Agg, res.Spans, res.SpansDropped = c.tr.collect()
	}
	return res
}

func addMailbox(sum *ygm.Stats, s ygm.Stats) {
	sum.Sends += s.Sends
	sum.Broadcasts += s.Broadcasts
	sum.Delivered += s.Delivered
	sum.Flushes += s.Flushes
	sum.HopsSent += s.HopsSent
	sum.HopsRecv += s.HopsRecv
	sum.Generations = max(sum.Generations, s.Generations)
	sum.EmptyRoundMsgs += s.EmptyRoundMsgs
}

// fillFromReport copies what transport.Run's report exposes for the
// ranks this process hosted. The counters are addressed by name, and a
// name the runtime no longer publishes would read 0 — a plausible value
// for most of them — so every counter this workload's runtime path is
// known to publish is looked up strictly and listed in Missing when it
// is not there; the parent fails the repetition on it.
func fillFromReport(res *procResult, rep *transport.Report, w *workload) {
	res.Totals = rep.Totals()
	res.MakespanS = rep.Makespan()
	for _, rr := range rep.Ranks {
		res.BusyS += rr.Busy
		res.WaitS += rr.Wait
	}
	m := rep.Metrics()
	counter := func(name string, expected bool) uint64 {
		v, ok := m.Counters[name]
		if !ok && expected {
			res.Missing = append(res.Missing, name)
		}
		return v
	}
	gauge := func(name string, expected bool) float64 {
		g, ok := m.Gauges[name]
		if !ok && expected {
			res.Missing = append(res.Missing, name)
		}
		return g.Max
	}
	lazy := w.exchange == ygm.LazyExchange && w.kind != kBFS // flush causes: the lazy mailbox counts them
	res.FlushCap = counter("ygm.flush.capacity", lazy)
	res.FlushAll = res.FlushCap + counter("ygm.flush.forward", lazy) +
		counter("ygm.flush.drain", lazy) + counter("ygm.flush.explicit", lazy)
	res.InboxParks = counter("inbox.parks", true)
	res.InboxSpinHits = counter("inbox.spin_hits", true)
	res.InboxPushes = counter("inbox.pushes", true)
	res.InboxSuppr = counter("inbox.wakeups_suppressed", true)
	res.InboxMaxDepth = rep.MaxInboxDepth()
	res.SchedHandoffs = counter("sched.handoffs", w.scheduled())
	res.SchedUtil = gauge("sched.worker_utilization", w.scheduled())
	res.SchedReadyHWM = gauge("sched.ready_depth_hwm", w.scheduled())
}
