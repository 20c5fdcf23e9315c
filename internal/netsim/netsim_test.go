package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuartzValidates(t *testing.T) {
	if err := Quartz().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	m := Quartz()
	m.WireBandwidth = 0
	if err := m.Validate(); err == nil {
		t.Error("zero wire bandwidth should be rejected")
	}
	m = Quartz()
	m.RemoteLatency = -1
	if err := m.Validate(); err == nil {
		t.Error("negative latency should be rejected")
	}
	m = Quartz()
	m.SendOverhead = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN overhead should be rejected")
	}
}

// TestBandwidthCurveShape reproduces the qualitative features of Fig. 5:
// effective bandwidth is monotonically increasing within each protocol
// regime, drops at the eager/rendezvous switch (16 KiB), and eventually
// exceeds the eager peak.
func TestBandwidthCurveShape(t *testing.T) {
	m := Quartz()
	prev := 0.0
	for s := 8; s <= EagerThreshold; s *= 2 {
		bw := m.EffectiveBandwidth(s)
		if bw <= prev {
			t.Fatalf("eager regime bandwidth not increasing at %d bytes: %g <= %g", s, bw, prev)
		}
		prev = bw
	}
	atSwitch := m.EffectiveBandwidth(EagerThreshold)
	justAfter := m.EffectiveBandwidth(EagerThreshold + 1)
	if justAfter >= atSwitch {
		t.Fatalf("no bandwidth drop at eager threshold: %g -> %g", atSwitch, justAfter)
	}
	prev = justAfter
	for s := 2 * EagerThreshold; s <= 64<<20; s *= 2 {
		bw := m.EffectiveBandwidth(s)
		if bw <= prev {
			t.Fatalf("rendezvous regime bandwidth not increasing at %d bytes", s)
		}
		prev = bw
	}
	if prev <= atSwitch {
		t.Fatalf("large-message bandwidth %g should exceed eager peak %g", prev, atSwitch)
	}
	if prev >= m.WireBandwidth {
		t.Fatalf("effective bandwidth %g must stay below wire rate %g", prev, m.WireBandwidth)
	}
}

func TestRemoteCheaperPerByteThanManySmall(t *testing.T) {
	// Coalescing rationale: one 64 KiB message must be much cheaper than
	// 8192 eight-byte messages.
	m := Quartz()
	one := m.RemoteTransferTime(64 << 10)
	many := 8192 * m.RemoteTransferTime(8)
	if one >= many/100 {
		t.Fatalf("coalescing advantage too small: one=%g many=%g", one, many)
	}
}

func TestLocalCheaperThanRemote(t *testing.T) {
	m := Quartz()
	for _, s := range []int{0, 64, 4096, 1 << 20} {
		if l, r := m.LocalTransferTime(s), m.RemoteTransferTime(s); l >= r {
			t.Fatalf("local transfer (%g) should beat remote (%g) at %d bytes", l, r, s)
		}
	}
}

func TestZeroCopyLocal(t *testing.T) {
	m := Quartz()
	withCopy := m.LocalTransferTime(1 << 20)
	m.ZeroCopyLocal = true
	if got := m.LocalTransferTime(1 << 20); got != m.LocalLatency {
		t.Fatalf("zero-copy local transfer = %g, want latency only %g", got, m.LocalLatency)
	}
	if withCopy <= m.LocalLatency {
		t.Fatal("copying local transfer should cost more than latency alone")
	}
}

func TestTransferTimePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Quartz().RemoteTransferTime(-1)
}

func TestTransferTimesPositiveProperty(t *testing.T) {
	m := Quartz()
	f := func(raw uint32) bool {
		s := int(raw % (64 << 20))
		rt := m.RemoteTransferTime(s)
		lt := m.LocalTransferTime(s)
		return rt > 0 && lt > 0 && !math.IsInf(rt, 0) && !math.IsNaN(rt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(2)
	c.Advance(3)
	if c.Now() != 5 || c.Busy() != 5 || c.Wait() != 0 {
		t.Fatalf("clock = now %g busy %g wait %g", c.Now(), c.Busy(), c.Wait())
	}
	if c.Utilization() != 1 {
		t.Fatalf("fully busy clock utilization = %g", c.Utilization())
	}
}

func TestClockAbsorbAt(t *testing.T) {
	var c Clock
	c.Advance(1)
	if jump := c.AbsorbAt(4, 0); jump != 3 || c.Now() != 4 || c.Wait() != 3 { // idle 3s
		t.Fatalf("clock = now %g wait %g, jump %g", c.Now(), c.Wait(), jump)
	}
	if jump := c.AbsorbAt(2, 0); jump != 0 || c.Now() != 4 || c.Wait() != 3 { // in the past: no-op
		t.Fatalf("past arrival moved the clock: now %g wait %g, jump %g", c.Now(), c.Wait(), jump)
	}
	if u := c.Utilization(); math.Abs(u-0.25) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.25", u)
	}
}

func TestClockZeroUtilization(t *testing.T) {
	var c Clock
	if c.Utilization() != 1 {
		t.Fatal("fresh clock should report full utilization")
	}
}

func TestClockPanicsOnNegativeAdvance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

// TestClockMonotoneProperty: any sequence of Advance/AbsorbAt keeps the
// clock monotone and busy+wait == now.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var c Clock
		prev := 0.0
		for i, op := range ops {
			if i%2 == 0 {
				c.Advance(float64(op) * 1e-6)
			} else {
				c.AbsorbAt(float64(op)*1e-5, 0)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return math.Abs(c.Busy()+c.Wait()-c.Now()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCopyOverheads(t *testing.T) {
	m := Quartz()
	if m.SendOverheadFor(true) != m.SendOverhead || m.RecvOverheadFor(true) != m.RecvOverhead {
		t.Fatal("copying model must charge full overheads locally")
	}
	m.ZeroCopyLocal = true
	if m.SendOverheadFor(true) >= m.SendOverhead || m.RecvOverheadFor(true) >= m.RecvOverhead {
		t.Fatal("zero-copy local transfers should cost less CPU")
	}
	if m.SendOverheadFor(false) != m.SendOverhead || m.RecvOverheadFor(false) != m.RecvOverhead {
		t.Fatal("zero-copy must not change remote overheads")
	}
}

func TestRecordHandlingTime(t *testing.T) {
	m := Quartz()
	small := m.RecordHandlingTime(0)
	if small != m.RecordOverhead {
		t.Fatalf("empty record should cost only the fixed overhead, got %g", small)
	}
	big := m.RecordHandlingTime(1 << 20)
	if big <= small || big < float64(1<<20)/m.LocalBandwidth {
		t.Fatalf("record handling must include the copy cost, got %g", big)
	}
	// Per-record handling must be far below per-packet overheads for
	// typical record sizes: that gap is what coalescing buys.
	if m.RecordHandlingTime(16) > m.RecvOverhead/10 {
		t.Fatalf("record handling %g too close to packet overhead %g", m.RecordHandlingTime(16), m.RecvOverhead)
	}
}
