package obs

import (
	"fmt"
	"strings"
)

// Kind classifies one flight-recorder event.
type Kind uint8

const (
	// KSend is one transport packet leaving this rank.
	KSend Kind = iota
	// KRecv is one transport packet absorbed by this rank.
	KRecv
	// KJump marks an absorb whose arrival wait exceeded the trace
	// threshold — the rank fast-forwarded its clock to the packet.
	KJump
	// KSpanBegin / KSpanEnd bracket a named virtual-time span.
	KSpanBegin
	KSpanEnd
	// KMark is a labelled instant event (termination generation, flush
	// cause, watchdog poison).
	KMark
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KSend:
		return "send"
	case KRecv:
		return "recv"
	case KJump:
		return "jump"
	case KSpanBegin:
		return "span+"
	case KSpanEnd:
		return "span-"
	case KMark:
		return "mark"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one flight-recorder entry. All fields are plain values, so
// recording is a fixed-size copy into the ring — no allocation, no
// retained references.
type Event struct {
	Kind Kind
	// T is the rank's virtual clock when the event was recorded.
	T float64
	// Peer is the other rank of a packet event, -1 when not applicable.
	Peer int32
	// Tag is the transport tag of a packet event, or an event-specific
	// small integer (e.g. the termination generation of a KMark).
	Tag uint64
	// Size is the payload size of a packet event.
	Size int64
	// Name labels spans and marks; empty for packet events.
	Name string
}

// String renders one event for dump output.
func (e Event) String() string {
	switch e.Kind {
	case KSend, KRecv, KJump:
		return fmt.Sprintf("%-5s t=%.6fs peer=%d tag=%#x size=%d", e.Kind, e.T, e.Peer, e.Tag, e.Size)
	case KSpanBegin, KSpanEnd:
		return fmt.Sprintf("%-5s t=%.6fs %s", e.Kind, e.T, e.Name)
	default:
		return fmt.Sprintf("%-5s t=%.6fs %s tag=%d", e.Kind, e.T, e.Name, e.Tag)
	}
}

// Recorder is a fixed-size ring buffer of the most recent events on one
// rank. It is written only by the owning rank's goroutine and read when
// that same goroutine unwinds (deadlock poison, panic), so it needs no
// locking; recording is two stores and a bump.
type Recorder struct {
	buf   []Event
	pos   int
	total uint64
}

// DefaultRecorderSize is the per-rank ring capacity when the Config
// does not choose one. Deadlock dumps promise at least the last 32
// events per rank; the default doubles that.
const DefaultRecorderSize = 64

// NewRecorder returns a recorder holding the last n events (n <= 0
// selects DefaultRecorderSize).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRecorderSize
	}
	return &Recorder{buf: make([]Event, n)}
}

// Record appends one event, overwriting the oldest when full.
func (r *Recorder) Record(e Event) {
	r.buf[r.pos] = e
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
	}
	r.total++
}

// Total returns the number of events ever recorded (recorded minus
// retained is how many the ring has dropped).
func (r *Recorder) Total() uint64 { return r.total }

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return len(r.buf) }

// Snapshot copies the retained events, oldest first.
func (r *Recorder) Snapshot() []Event {
	n := int(r.total)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]Event, 0, n)
	start := r.pos - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// FormatEvents renders events one per line with the given indent — the
// shared formatter of DeadlockError and rank-panic dumps.
func FormatEvents(events []Event, indent string) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(indent)
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
