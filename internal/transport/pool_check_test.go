//go:build ygmcheck

package transport

import (
	"bytes"
	"testing"

	"ygm/internal/machine"
)

// TestCheckRecyclePoisonsPooledPayload: under ygmcheck, Recycle poisons
// every payload it takes back — one from AcquireBuf and one the sender
// allocated itself — so a read after release sees garbage.
func TestCheckRecyclePoisonsPooledPayload(t *testing.T) {
	_, err := Run(Config{Topo: machine.New(1, 2)}, func(p *Proc) error {
		if p.Rank() == 0 {
			buf := p.AcquireBuf(8)
			copy(buf, "pooled!!")
			p.SendPooled(1, TagUser, buf)
			p.SendPooled(1, TagUser, []byte("allocated"))
			return nil
		}
		for _, name := range []string{"acquired", "allocated"} {
			pkt := p.Recv(TagUser)
			kept := pkt.Payload
			p.Recycle(pkt)
			if want := bytes.Repeat([]byte{poisonByte}, len(kept)); !bytes.Equal(kept, want) {
				t.Errorf("%s payload after Recycle = %q, want poison", name, kept)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
