//go:build ygmcheck

package transport

import (
	"bytes"
	"testing"

	"ygm/internal/machine"
)

// TestCheckRecyclePoisonsPooledPayload: under ygmcheck, Recycle poisons
// a SendPooled payload, so a read after release sees garbage, while a
// plain Send payload stays the receiver's and survives its packet's
// Recycle.
func TestCheckRecyclePoisonsPooledPayload(t *testing.T) {
	_, err := Run(Config{Topo: machine.New(1, 2)}, func(p *Proc) error {
		if p.Rank() == 0 {
			buf := p.AcquireBuf(8)
			copy(buf, "pooled!!")
			p.SendPooled(1, TagUser, buf)
			p.Send(1, TagUser, []byte("plain"))
			return nil
		}
		pooled := p.Recv(TagUser)
		kept := pooled.Payload
		p.Recycle(pooled)
		if want := bytes.Repeat([]byte{poisonByte}, 8); !bytes.Equal(kept, want) {
			t.Errorf("pooled payload after Recycle = %q, want poison", kept)
		}
		plain := p.Recv(TagUser)
		payload := plain.Payload
		p.Recycle(plain)
		if string(payload) != "plain" {
			t.Errorf("plain payload after Recycle = %q, want it intact", payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
