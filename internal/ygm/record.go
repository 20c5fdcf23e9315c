package ygm

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// recordKind encodes what a record is and, for broadcast records, which
// stage of the scheme's fan-out it is in. The kind is the first byte of
// every record in a coalesced packet.
type recordKind byte

const (
	// kindUnicast is a point-to-point message carrying its final
	// destination rank; intermediaries forward it along NextHop.
	kindUnicast recordKind = iota
	// kindBcastDeliver is a broadcast copy in its final stage: deliver to
	// the receiving rank, no further forwarding.
	kindBcastDeliver
	// kindBcastLocalFanout (NodeLocal): deliver, then send
	// kindBcastDeliver remotely to every node's core with the receiver's
	// core offset.
	kindBcastLocalFanout
	// kindBcastRemoteDistribute (NodeRemote): deliver, then send
	// kindBcastDeliver to every other core on the receiving node.
	kindBcastRemoteDistribute
	// kindBcastNLNRFanout (NLNR stage 1): deliver, then send
	// kindBcastNLNRDistribute remotely to every node in the receiver's
	// residue class.
	kindBcastNLNRFanout
	// kindBcastNLNRDistribute (NLNR stage 2): deliver, then send
	// kindBcastDeliver to every other core on the receiving node.
	kindBcastNLNRDistribute
)

// appendRecord serializes one record into a coalescing buffer:
// kind byte, destination (unicast only), then a length-prefixed payload.
func appendRecord(w *codec.Writer, kind recordKind, dst machine.Rank, payload []byte) {
	w.Byte(byte(kind))
	if kind == kindUnicast {
		w.Uvarint(uint64(dst))
	}
	w.Bytes0(payload)
}

// record is one parsed entry of a coalesced packet.
type record struct {
	kind    recordKind
	dst     machine.Rank // meaningful for kindUnicast only
	payload []byte       // aliases the packet buffer
}

// parseRecord decodes the next record from r.
func parseRecord(r *codec.Reader) (record, error) {
	var rec record
	k, err := r.Byte()
	if err != nil {
		return rec, err
	}
	rec.kind = recordKind(k)
	if rec.kind > kindBcastNLNRDistribute {
		return rec, fmt.Errorf("ygm: corrupt record kind %d", k)
	}
	if rec.kind == kindUnicast {
		d, err := r.Uvarint()
		if err != nil {
			return rec, err
		}
		rec.dst = machine.Rank(d)
	}
	rec.payload, err = r.Bytes0()
	return rec, err
}
