package transport

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
)

// TestChromeTracerRoundTrip runs a small world with the tracer attached,
// exercises packets, spans, and marks, and checks the emitted JSON both
// with the shared validator and structurally: per-rank process metadata,
// matched flow arrows, balanced spans, and the mark instant.
func TestChromeTracerRoundTrip(t *testing.T) {
	tr := NewChromeTracer()
	_, err := Run(Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  9,
		Trace: tr,
	}, func(p *Proc) error {
		sp := p.Span("work")
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				p.SendPooled(1, TagUser, []byte("hello"))
			}
			p.Mark("sent", 3)
		} else {
			for i := 0; i < 3; i++ {
				pkt := p.Recv(TagUser)
				p.Recycle(pkt)
			}
		}
		sp.End()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int64   `json:"pid"`
			Ts   float64 `json:"ts"`
			ID   uint64  `json:"id"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	meta := map[int64]bool{}
	var sawMark bool
	for _, e := range doc.TraceEvents {
		counts[e.Ph]++
		if e.Ph == "M" {
			meta[e.Pid] = true
		}
		if e.Ph == "i" && e.Name == "sent" {
			sawMark = true
		}
	}
	if !meta[0] || !meta[1] {
		t.Fatalf("missing process_name metadata for a rank: %v", meta)
	}
	if counts["s"] != 3 || counts["f"] != 3 {
		t.Fatalf("flow arrows s=%d f=%d, want 3/3 for 3 packets", counts["s"], counts["f"])
	}
	if counts["B"] != counts["E"] || counts["B"] < 2 {
		t.Fatalf("span slices B=%d E=%d, want balanced with both ranks' work span", counts["B"], counts["E"])
	}
	if !sawMark {
		t.Fatal("Mark(\"sent\") did not produce an instant event")
	}
}

// TestChromeTracerFlowFIFO checks that multiple in-flight packets on one
// channel bind receives to sends in order: the transport's per-channel
// non-overtaking makes a FIFO exact, so ids on "f" events must appear in
// the order the "s" events minted them.
func TestChromeTracerFlowFIFO(t *testing.T) {
	tr := NewChromeTracer()
	tr.PacketSent(0, 1, TagUser, 8, 0.0, 1.0)
	tr.PacketSent(0, 1, TagUser, 8, 0.1, 1.1)
	tr.PacketSent(0, 1, TagUser, 8, 0.2, 1.2)
	tr.PacketReceived(0, 1, TagUser, 8, 1.0)
	tr.PacketReceived(0, 1, TagUser, 8, 1.1)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID uint64 `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var starts, finishes []uint64
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			starts = append(starts, e.ID)
		case "f":
			finishes = append(finishes, e.ID)
		}
	}
	if len(starts) != 3 || len(finishes) != 2 {
		t.Fatalf("starts=%v finishes=%v, want 3 starts and 2 finishes", starts, finishes)
	}
	if finishes[0] != starts[0] || finishes[1] != starts[1] {
		t.Fatalf("flow finishes %v do not FIFO-match starts %v", finishes, starts)
	}
}

// TestChromeTracerUnmatchedReceiveDropped: a receive with no recorded
// send (tracer attached mid-run) must be dropped, not fabricated.
func TestChromeTracerUnmatchedReceiveDropped(t *testing.T) {
	tr := NewChromeTracer()
	tr.PacketReceived(0, 1, TagUser, 8, 1.0)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"ph":"f"`)) {
		t.Fatalf("unmatched receive emitted a flow finish: %s", buf.Bytes())
	}
}

// TestValidateChromeTraceNegative feeds the validator malformed traces
// and requires each to be rejected with a diagnostic mentioning the
// defect.
func TestValidateChromeTraceNegative(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", `{`, "not valid JSON"},
		{"empty events", `{"traceEvents":[]}`, "empty traceEvents"},
		{"unknown phase", `{"traceEvents":[{"name":"x","ph":"Z","pid":0,"ts":0}]}`, "unknown phase"},
		{"missing pid", `{"traceEvents":[{"name":"x","ph":"B","ts":0}]}`, "missing pid"},
		{"missing ts", `{"traceEvents":[{"name":"x","ph":"B","pid":0}]}`, "missing ts"},
		{"negative ts", `{"traceEvents":[{"name":"x","ph":"B","pid":0,"ts":-1}]}`, "negative ts"},
		{"missing name", `{"traceEvents":[{"name":"","ph":"B","pid":0,"ts":0}]}`, "missing name"},
		{"unbalanced end", `{"traceEvents":[{"name":"x","ph":"E","pid":0,"ts":0}]}`, "no open span"},
		{"unclosed span", `{"traceEvents":[{"name":"x","ph":"B","pid":0,"ts":0}]}`, "unclosed span"},
		{"flow start no id", `{"traceEvents":[{"name":"p","ph":"s","pid":0,"ts":0}]}`, "flow start missing id"},
		{"flow finish no start", `{"traceEvents":[{"name":"p","ph":"f","pid":0,"ts":0,"id":7}]}`, "no start"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateChromeTrace([]byte(tc.data))
			if err == nil {
				t.Fatalf("validator accepted malformed trace %q", tc.data)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
