package transport

import (
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"

	"ygm/internal/machine"
)

// parkSpins bounds the spin phase of a blocking receive: the consumer
// re-absorbs and yields this many times before parking on the wake
// channel. Spinning must yield — on GOMAXPROCS=1 a non-yielding spin
// would stall the very producer it waits for — and every yield walks
// the scheduler's run queue, so the spin budget is kept small: enough
// to catch a producer that is about to publish, cheap enough to lose to
// a park otherwise.
const parkSpins = 2

// parker states (Inbox.pstate).
const (
	pIdle int32 = iota
	pParked
)

// packetHeap orders packets by virtual arrival time, breaking ties with
// (source rank, absorb order). seq is only ever compared between packets
// of one source, and absorb order extends every sender's push order, so
// the merge order is a function of the traffic alone — it does not
// depend on how the host interleaved concurrent senders.
type packetHeap []*Packet

func (h packetHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.Arrive != b.Arrive {
		return a.Arrive < b.Arrive
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.seq < b.seq
}

func (h *packetHeap) push(p *Packet) {
	q := append(*h, p)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *packetHeap) popMin() *Packet {
	q := *h
	p := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return p
}

// tagSlot is one resident entry of an inbox's tag table: the tag that
// last claimed it and its merge heap, which may be empty.
type tagSlot struct {
	tag Tag
	q   packetHeap
}

// Inbox is a rank's receive queue — the paper's mailbox: one queue that
// every sender appends to. Producers — the sending ranks' goroutines, or
// a wire's reader goroutines — push lock-free onto one intrusive stack;
// the owning rank, the only consumer, absorbs the stack into a
// consumer-private table of per-tag min-heaps on virtual arrival and
// pops from those. A rank's live tags are few (mailbox data,
// termination, a collective, the current round's stages), so the table
// is a slice scanned linearly whose slots stay resident. Blocking
// receives spin briefly (re-absorbing between yields) and then park on
// a one-token wake channel that producers post to only when they
// observe the parked state. On a simulated wire, whose worlds run under
// the M:N scheduler, that channel is the rank's scheduler gate: the
// rank gives up its worker token before it parks, and the wake it
// receives is the grant of a new one.
//
// The fields live in inboxFields; Inbox pads them to whole cache lines.
// Producers CAS head on every push, so an inbox that shared a line with
// its neighbour's would make every push to one rank contend with the
// other rank's own consumer writes. The allocator starts objects of a
// size that is a multiple of the line on a line boundary, so the pad
// keeps each inbox on 64-byte lines of its own whatever the fields add
// up to. The pad is never empty: Go lengthens a struct that ends in a
// zero-size field.
type Inbox struct {
	inboxFields
	_ [64 - unsafe.Sizeof(inboxFields{})%64]byte
}

type inboxFields struct {
	// head is the stack of pushed-but-unabsorbed packets, newest first,
	// linked through Packet.next. Producers only ever CAS a new packet
	// in front of it and the consumer only ever swaps the whole stack
	// out, so no node is unlinked while a producer may hold it (no ABA).
	head atomic.Pointer[Packet]

	// sched/self route the park protocol through the world's M:N rank
	// scheduler on a simulated wire: the consumer releases its worker
	// token before it parks, and a producer that wins the unpark CAS
	// calls sched.ready(self), which grants a token through wake. sched
	// is nil on a real-time wire, whose ranks run direct.
	sched *scheduler
	self  machine.Rank

	// pstate/wake implement the park protocol. The consumer publishes
	// pParked, re-checks for data, then receives on wake; a producer
	// that CASes pParked→pIdle owns the transition and owes exactly one
	// wake (see wakeOwner). wake is set when the inbox is built: the
	// rank's scheduler gate under the scheduler, a channel of its own
	// otherwise.
	pstate atomic.Int32
	wake   chan struct{}

	// rt is the owning rank's real-time clock, nil on a simulated wire:
	// a park is the one wait the rank's clock accounts (see sleep).
	rt *rtClock

	// waiting/waitTag expose whether the owning rank is parked inside
	// WaitAny, and on which tag — the deadlock watchdog's blocked
	// signal. poisoned makes WaitAny return false so blocked ranks can
	// unwind and report their state instead of hanging forever.
	waiting  atomic.Bool
	waitTag  atomic.Uint64
	poisoned atomic.Bool

	// absorbed counts packets moved from the stack into the heaps and
	// pops counts heap pops; both are written by the consumer only.
	// wakeups counts pushes that won the unpark CAS; the remaining
	// pushes found no parked receiver and suppressed the signal. The
	// watchdog reads all three as its progress signal.
	absorbed atomic.Uint64
	pops     atomic.Uint64
	wakeups  atomic.Uint64

	// Consumer-private merge state: the tag table. A slot keeps its
	// tag and capacity when its heap empties, and a tag with no slot claims the first empty one (see
	// enqueue), so the table never holds one tag twice and never grows
	// past the peak number of tags queued at once.
	slots []tagSlot
	depth int
	// maxDepth tracks the high-water mark of merged packets, a proxy
	// for the receive-side memory pressure the mailbox capacity bounds.
	maxDepth int
	// spinHits counts blocking receives satisfied during the spin
	// phase; parks counts the times the consumer actually parked.
	spinHits uint64
	parks    uint64

	// check is the ygmcheck channel audit; an empty struct in default
	// builds.
	check inboxCheck

	// yields counts the owner's Proc.Yield calls, its idle loop's mark;
	// lastYields is the count at the watchdog's previous look (watchdog
	// goroutine only). A rank that yields and never parks is idle to the
	// watchdog exactly as a parked one is.
	yields     atomic.Uint64
	lastYields uint64
}

// NewInbox returns an empty, unscheduled inbox with its own wake
// channel. An inbox holds no per-sender state — idle, it costs the same
// few hundred bytes at 4 ranks and at 65,536 — so the world-size
// parameter sizes nothing; it stays because callers outside this module
// pass it.
func NewInbox(int) *Inbox {
	ib := &Inbox{}
	ib.wake = make(chan struct{}, 1)
	return ib
}

// Push enqueues p: link it in front of the stack head with one CAS and
// wake the receiver only if it is parked. Lock-free, allocation-free
// and unbounded. Any goroutine may push, but all pushes of one p.Src
// must be ordered (one goroutine per source, which every wire
// provides): that order is the channel's FIFO order.
func (ib *Inbox) Push(p *Packet) {
	ib.checkPush(p)
	// The CAS publishes p: from then on the consumer may absorb,
	// deliver and recycle it, so nothing below touches p again.
	for {
		old := ib.head.Load()
		p.next = old
		if ib.head.CompareAndSwap(old, p) {
			break
		}
	}
	ib.signal()
}

// testLoseWakeup, when non-nil, makes signal drop the wake it owes the
// given rank — the seeded lost-wakeup mutation the watchdog smoke test
// must catch. Test hook; nil in production.
var testLoseWakeup func(machine.Rank) bool

// signal wakes the owning rank after a push if it is parked: the
// producer that wins the pParked→pIdle CAS owes exactly one wake.
func (ib *Inbox) signal() {
	if ib.pstate.Load() == pParked && ib.pstate.CompareAndSwap(pParked, pIdle) {
		if testLoseWakeup != nil && testLoseWakeup(ib.self) {
			return
		}
		ib.wakeups.Add(1)
		ib.wakeOwner()
	}
}

// wakeOwner delivers the wake owed to the parked owner: a scheduler
// ready(), which grants the rank a worker token through wake or queues
// it for one, or on a real-time wire a token on wake. Outside a
// poisoned world the CAS protocol leaves wake empty whenever a wake is
// owed; see poison for the one wake that may come on top.
func (ib *Inbox) wakeOwner() {
	if ib.sched != nil {
		ib.checkReadyFoundWaiting(ib.sched.ready(ib.self))
		return
	}
	select {
	case ib.wake <- struct{}{}:
	default:
	}
}

// absorb moves every pushed-but-unmerged packet into the
// consumer-private per-tag heaps. Only the owning rank may call it. An
// empty inbox costs one load. Taking the stack whole and reversing it
// restores every sender's push order, so each pass absorbs a prefix of
// every channel — the per-channel FIFO the upper layers and the trace
// flow-arrow matcher rely on — and stamping seq in that order makes it
// a valid tie-break within one source.
func (ib *Inbox) absorb() {
	if ib.head.Load() == nil {
		return
	}
	var first *Packet
	for p := ib.head.Swap(nil); p != nil; {
		next := p.next
		p.next = first
		first = p
		p = next
	}
	seq := ib.absorbed.Load()
	for p := first; p != nil; {
		next := p.next
		p.next = nil
		ib.checkAbsorbed(p)
		p.seq = seq
		seq++
		ib.enqueue(p)
		p = next
	}
	ib.absorbed.Store(seq)
	if ib.depth > ib.maxDepth {
		ib.maxDepth = ib.depth
	}
}

// enqueue inserts one absorbed packet into its tag's heap. A tag with
// no slot claims the first empty slot, or appends one when every slot
// holds packets.
func (ib *Inbox) enqueue(p *Packet) {
	q := ib.heapFor(p.Tag)
	if q == nil {
		i := 0
		for i < len(ib.slots) && len(ib.slots[i].q) > 0 {
			i++
		}
		if i == len(ib.slots) {
			ib.slots = append(ib.slots, tagSlot{})
		}
		ib.slots[i].tag = p.Tag
		q = &ib.slots[i].q
	}
	q.push(p)
	ib.depth++
	ib.verify(p.Tag)
}

// heapFor returns tag's resident heap, possibly empty, or nil when no
// slot holds tag.
func (ib *Inbox) heapFor(tag Tag) *packetHeap {
	for i := range ib.slots {
		if ib.slots[i].tag == tag {
			return &ib.slots[i].q
		}
	}
	return nil
}

// pop absorbs, then removes and returns the merge minimum under tag if
// its virtual arrival is at or before now, or nil. TryPop (so Recv) and
// a real-time Poll pass +Inf, taking whatever is physically present; a
// simulated Poll passes its clock, so polling never makes a rank wait.
func (ib *Inbox) pop(tag Tag, now float64) *Packet {
	ib.absorb()
	q := ib.heapFor(tag)
	if q == nil || len(*q) == 0 || (*q)[0].Arrive > now {
		return nil
	}
	ib.depth--
	ib.pops.Add(1)
	p := q.popMin()
	ib.verify(tag)
	return p
}

// has reports whether a packet is merged under any of tags.
func (ib *Inbox) has(tags []Tag) bool {
	for _, tag := range tags {
		if q := ib.heapFor(tag); q != nil && len(*q) > 0 {
			return true
		}
	}
	return false
}

// WaitAny blocks until a packet is present under any of tags and
// removes nothing: a progress loop that serves several streams waits
// here and then drains whichever moved. The wait is adaptive: re-absorb
// and yield up to parkSpins times (cheap when the producer is about to
// publish), then publish the parked state and sleep on the wake channel
// until a producer posts its one token; only that sleep counts as the
// rank's wait on a real-time wire (see sleep). The channel is the one
// set when the inbox was built. On a simulated wire it is the rank's
// scheduler gate: the rank releases its worker token before it
// publishes the parked state, and the wake it receives is a new token's
// grant. It reports false only after the inbox has been poisoned; the
// watchdog sees the rank blocked on tags[0].
func (ib *Inbox) WaitAny(tags ...Tag) bool {
	ib.absorb()
	if ib.has(tags) {
		return true
	}
	if ib.poisoned.Load() {
		return false
	}
	ib.waitTag.Store(uint64(tags[0]))
	spins := 0
	for {
		ib.absorb()
		if ib.has(tags) {
			ib.spinHits++
			return true
		}
		if ib.poisoned.Load() {
			return false
		}
		if spins < parkSpins {
			spins++
			runtime.Gosched()
			continue
		}
		// Release before publishing: once pParked is visible a
		// producer may ready the rank, and ready must find it holding
		// no token.
		ib.sched.release(ib.self)
		ib.pstate.Store(pParked)
		ib.waiting.Store(true)
		// Re-check after publishing pParked: a producer that pushed
		// before observing the parked state is now visible here, and
		// one that pushes later will observe pParked and send the
		// token. Sequentially consistent atomics rule out the window
		// where both sides miss each other.
		ib.absorb()
		if found := ib.has(tags); found || ib.poisoned.Load() {
			ib.unpark()
			if found {
				ib.spinHits++
			}
			return found
		}
		ib.parks++
		ib.sleep()
		ib.waiting.Store(false)
		spins = 0
	}
}

// sleep blocks on the wake channel. Under a real-time wire it reads the
// host clock on either side and adds the interval to the rank's wait:
// two readings per park, none for a wait the spin phase satisfied.
func (ib *Inbox) sleep() {
	if ib.rt == nil {
		<-ib.wake
		return
	}
	t0 := ib.rt.now()
	<-ib.wake
	ib.rt.wait += ib.rt.now() - t0
}

// unpark takes back a published park after the pre-sleep recheck found
// data (or poison). If the rank wins the pParked→pIdle CAS back, no
// wake is owed and a scheduled rank re-acquires the token it released.
// Otherwise a producer won it first and owes exactly one wake: receive
// it (so a future park cannot wake spuriously) — under the scheduler,
// that wake is the token grant.
func (ib *Inbox) unpark() {
	ib.waiting.Store(false)
	if ib.pstate.CompareAndSwap(pParked, pIdle) {
		ib.sched.acquire(ib.self)
	} else {
		<-ib.wake
	}
}

// TryPop removes and returns the earliest-arrival packet with the given
// tag, or nil if none is physically present. It ignores virtual time:
// callers that are already waiting (mailbox drains) use it and then
// fast-forward their clock to the packet's arrival.
func (ib *Inbox) TryPop(tag Tag) *Packet { return ib.pop(tag, math.Inf(1)) }

// DrainInto removes every physically present packet under tag, appending
// them to dst in virtual-arrival order, after a single absorb pass. It
// ignores virtual time, like TryPop; callers absorb each packet's clock
// cost as they consume it.
func (ib *Inbox) DrainInto(tag Tag, dst []*Packet) []*Packet {
	ib.absorb()
	q := ib.heapFor(tag)
	if q == nil || len(*q) == 0 {
		return dst
	}
	n := len(*q)
	for i := 0; i < n; i++ {
		dst = append(dst, q.popMin())
	}
	ib.depth -= n
	ib.pops.Add(uint64(n))
	ib.verify(tag)
	return dst
}

// unabsorbed counts the packets still on the stack. The chain below a
// loaded head is immutable until the consumer's next swap, so the walk
// is safe from the owning rank, and from anyone once that rank has
// stopped.
func (ib *Inbox) unabsorbed() int {
	n := 0
	for p := ib.head.Load(); p != nil; p = p.next {
		n++
	}
	return n
}

// progress returns a counter that moves with every absorb, pop and
// wake — the watchdog's signal that the run is still moving. A push
// that wakes nobody is not counted until its receiver absorbs it, and
// that receiver is by construction not parked. blocked reports whether
// the owning rank is parked in WaitAny, and on which tag. Safe to call
// from the watchdog goroutine.
func (ib *Inbox) progress() (count uint64, blocked bool, tag Tag) {
	return ib.absorbed.Load() + ib.pops.Load() + ib.wakeups.Load(), ib.waiting.Load(), Tag(ib.waitTag.Load())
}

// spun reports whether the owning rank yielded since the previous call:
// it is in a nonblocking idle loop. Watchdog goroutine only.
func (ib *Inbox) spun() bool {
	y := ib.yields.Load()
	moved := y != ib.lastYields
	ib.lastYields = y
	return moved
}

// poison makes every future WaitAny fail and wakes the receiver if one
// is parked. Called by the deadlock watchdog only. The unpark CAS is the
// same protocol producers use, so poison and Push can never both owe a
// wake for one park. If the CAS finds the parked state already claimed
// but the rank still reports itself waiting, the wake that claim owed
// may have been lost — the bug class the mutation smoke seeds — and
// poison forces one anyway, so a poisoned run always unwinds into a
// DeadlockError instead of hanging on a stranded park. When the owed
// wake was not lost, the second one adds nothing: the scheduler finds
// the rank no longer waiting, and an unscheduled rank's channel is full
// or the rank is re-checking in a loop that now sees the poison.
func (ib *Inbox) poison() {
	ib.poisoned.Store(true)
	if ib.pstate.CompareAndSwap(pParked, pIdle) || ib.waiting.Load() {
		ib.wakeOwner()
	}
}

// Len returns the number of packets currently queued across all tags,
// including pushed-but-unabsorbed ones. Owning rank or post-run only
// (its callers: deadlock dumps and post-run accounting).
func (ib *Inbox) Len() int { return ib.depth + ib.unabsorbed() }

// MaxDepth returns the historical maximum of merged packets, measured
// after each absorb pass. Owning rank or post-run only.
func (ib *Inbox) MaxDepth() int { return ib.maxDepth }

// WakeStats returns push accounting: how many pushes the inbox has
// seen, how many signalled a parked receiver, and how many elided the
// signal because nobody was waiting. pushes == wakeups + suppressed.
// Exact when producers are quiescent (post-run accounting).
func (ib *Inbox) WakeStats() (pushes, wakeups, suppressed uint64) {
	pushes = ib.absorbed.Load() + uint64(ib.unabsorbed())
	wakeups = ib.wakeups.Load()
	return pushes, wakeups, pushes - wakeups
}

// SpinParkStats returns how many blocking receives were satisfied while
// spinning versus how many parked on the wake channel. Owning rank or
// post-run only.
func (ib *Inbox) SpinParkStats() (spinHits, parks uint64) {
	return ib.spinHits, ib.parks
}
