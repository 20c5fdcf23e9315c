package transport

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"ygm/internal/machine"
)

// ChromeTracer is a Tracer that accumulates a run's events as Chrome
// trace_event JSON: one "process" per rank, span begin/end slices from
// the observability layer, flow arrows for every packet from sender to
// receiver, and instant marks. The output loads
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Virtual seconds map to trace microseconds. It buffers everything in
// memory, so it is a diagnostic tool for bounded runs, not a production
// sink; all methods lock, keeping it safe for concurrent rank use at
// the cost of serializing event emission.
type ChromeTracer struct {
	mu     sync.Mutex
	events []chromeEvent
	// flows matches PacketReceived calls back to the flow id their
	// PacketSent minted. A FIFO per (src, dst, tag) channel is exact
	// because the transport guarantees per-channel non-overtaking.
	flows  map[chromeFlowKey][]uint64
	nextID uint64
	ranks  map[machine.Rank]struct{}
}

type chromeFlowKey struct {
	src, dst machine.Rank
	tag      Tag
}

// chromeEvent is one trace_event entry. Field presence follows the
// trace-event format: every event carries ph/pid/tid/ts; duration
// events add dur, flow events add id, instants add s (scope).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	ID   uint64         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewChromeTracer returns an empty tracer, ready to pass as Config.Trace.
func NewChromeTracer() *ChromeTracer {
	return &ChromeTracer{
		flows: make(map[chromeFlowKey][]uint64),
		ranks: make(map[machine.Rank]struct{}),
	}
}

// PacketSent emits the flow-start arrow on the sender's process.
func (t *ChromeTracer) PacketSent(src, dst machine.Rank, tag Tag, size int, sent, arrive float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ranks[src] = struct{}{}
	t.ranks[dst] = struct{}{}
	t.nextID++
	id := t.nextID
	k := chromeFlowKey{src: src, dst: dst, tag: tag}
	t.flows[k] = append(t.flows[k], id)
	t.events = append(t.events, chromeEvent{
		Name: "pkt", Ph: "s", Cat: "pkt",
		Pid: int64(src), Ts: sent * 1e6, ID: id,
		Args: map[string]any{
			"dst":  int64(dst),
			"tag":  fmt.Sprintf("%#x", uint64(tag)),
			"size": size,
		},
	})
}

// PacketReceived emits the flow-finish arrow on the receiver's process,
// bound to the matching PacketSent via the per-channel FIFO.
func (t *ChromeTracer) PacketReceived(src, dst machine.Rank, tag Tag, size int, now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ranks[dst] = struct{}{}
	k := chromeFlowKey{src: src, dst: dst, tag: tag}
	q := t.flows[k]
	if len(q) == 0 {
		// Receive with no recorded send (tracer attached mid-run);
		// drop the arrow rather than fabricate a flow id.
		return
	}
	id := q[0]
	t.flows[k] = q[1:]
	t.events = append(t.events, chromeEvent{
		Name: "pkt", Ph: "f", Cat: "pkt", BP: "e",
		Pid: int64(dst), Ts: now * 1e6, ID: id,
		Args: map[string]any{
			"src":  int64(src),
			"tag":  fmt.Sprintf("%#x", uint64(tag)),
			"size": size,
		},
	})
}

// SpanBegin emits a duration-begin event on the rank's process.
func (t *ChromeTracer) SpanBegin(rank machine.Rank, name string, at float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ranks[rank] = struct{}{}
	t.events = append(t.events, chromeEvent{
		Name: name, Ph: "B", Cat: "span", Pid: int64(rank), Ts: at * 1e6,
	})
}

// SpanEnd emits the matching duration-end event.
func (t *ChromeTracer) SpanEnd(rank machine.Rank, name string, at float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, chromeEvent{
		Name: name, Ph: "E", Cat: "span", Pid: int64(rank), Ts: at * 1e6,
	})
}

// Mark emits a thread-scoped instant event carrying the mark's value.
func (t *ChromeTracer) Mark(rank machine.Rank, name string, value uint64, at float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ranks[rank] = struct{}{}
	t.events = append(t.events, chromeEvent{
		Name: name, Ph: "i", Cat: "mark", S: "t",
		Pid: int64(rank), Ts: at * 1e6,
		Args: map[string]any{"value": value},
	})
}

// WriteTo writes the accumulated trace as a JSON object with a
// traceEvents array, prefixed by process_name metadata naming each rank.
func (t *ChromeTracer) WriteTo(w io.Writer) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := make([]chromeEvent, 0, len(t.ranks)+len(t.events))
	for r := range t.ranks {
		all = append(all, chromeEvent{
			Name: "process_name", Ph: "M", Pid: int64(r),
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
	}
	// Metadata order is map-random; sort for deterministic output.
	for i := 1; i < len(t.ranks); i++ {
		for j := i; j > 0 && all[j].Pid < all[j-1].Pid; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	all = append(all, t.events...)
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: all, DisplayTimeUnit: "ms"}
	data, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// ValidateChromeTrace checks that data is well-formed Chrome trace_event
// JSON as this package emits it: an object with a non-empty traceEvents
// array whose entries carry a known phase, numeric pid/ts, names on
// non-flow events, balanced B/E nesting per process, and flow finishes
// that bind to an earlier flow start. Tests and the CI trace smoke job
// share it.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Pid  *int64   `json:"pid"`
			Ts   *float64 `json:"ts"`
			ID   uint64   `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace: empty traceEvents array")
	}
	known := map[string]bool{"B": true, "E": true, "X": true, "i": true, "s": true, "f": true, "M": true, "C": true}
	depth := make(map[int64]int)
	openFlows := make(map[uint64]bool)
	for i, e := range doc.TraceEvents {
		if !known[e.Ph] {
			return fmt.Errorf("trace: event %d has unknown phase %q", i, e.Ph)
		}
		if e.Pid == nil {
			return fmt.Errorf("trace: event %d missing pid", i)
		}
		if e.Ph != "M" {
			if e.Ts == nil {
				return fmt.Errorf("trace: event %d missing ts", i)
			}
			if *e.Ts < 0 {
				return fmt.Errorf("trace: event %d has negative ts %g", i, *e.Ts)
			}
		}
		if e.Name == "" {
			return fmt.Errorf("trace: event %d missing name", i)
		}
		switch e.Ph {
		case "B":
			depth[*e.Pid]++
		case "E":
			depth[*e.Pid]--
			if depth[*e.Pid] < 0 {
				return fmt.Errorf("trace: event %d: span end with no open span on pid %d", i, *e.Pid)
			}
		case "s":
			if e.ID == 0 {
				return fmt.Errorf("trace: event %d: flow start missing id", i)
			}
			openFlows[e.ID] = true
		case "f":
			if !openFlows[e.ID] {
				return fmt.Errorf("trace: event %d: flow finish %d with no start", i, e.ID)
			}
		}
	}
	for pid, d := range depth {
		if d != 0 {
			return fmt.Errorf("trace: pid %d ends with %d unclosed span(s)", pid, d)
		}
	}
	return nil
}
