// repl.go defines the replication wire frame: the body of
// POST /v1/replica/{topic}/append, by which a topic's primary ships its
// journal tail (and, on first contact or after a compaction, the full
// base snapshot) to the topic's ring successors. The frame is built from
// the fixed-width wire primitives (wire.go) and the snapshot format's
// framing idiom: a magic + version prelude, and a trailing CRC-32C over
// everything before it, so a truncated or corrupted ship is rejected
// whole — a follower never applies half a frame.
package codec

import (
	"encoding/binary"
	"fmt"
)

// ReplVersion is the current replication frame version.
const ReplVersion = 1

var replMagic = [8]byte{'T', 'R', 'I', 'C', 'R', 'E', 'P', 'L'}

// maxReplSection bounds the snapshot and tail lengths a decoder will
// allocate for, so a corrupted length field cannot force an OOM. The
// daemon's request-body bound is the real ceiling; this is the decoder's
// own last line.
const maxReplSection = 1 << 31

// ReplAppend is one replication shipment for a topic.
//
// The follower stores a cold replica: the base snapshot bytes plus a
// journal of record frames extending it. SnapCRC names the base the Tail
// extends — a follower holding a different base answers out-of-sync and
// the primary re-ships with Snapshot set. Batches/RandDraws are the
// topic's post-shipment fingerprint; the follower verifies the decoded
// tail chains to exactly that position before fsyncing anything.
type ReplAppend struct {
	// Source is the shipping shard's base URL — the peer a follower (or a
	// fenced zombie) should point clients and tombstones at.
	Source string
	// Epoch is the shipping shard's ownership epoch for the topic. A
	// follower serving or holding the topic at a higher epoch rejects the
	// frame with epoch_mismatch — the fencing check that cuts a zombie
	// primary off after a promotion.
	Epoch uint64
	// SnapCRC is the CRC-32C of the base snapshot the Tail extends.
	SnapCRC uint32
	// BaseBatches and BaseRandDraws fingerprint the base snapshot itself
	// (meaningful when Snapshot is present): the position the first tail
	// record must follow.
	BaseBatches   uint64
	BaseRandDraws uint64
	// Batches and RandDraws fingerprint the topic after applying Tail.
	Batches   uint64
	RandDraws uint64
	// Snapshot, when non-nil, carries the full base snapshot (first
	// contact, post-compaction, or resync after divergence).
	Snapshot []byte
	// Tail carries zero or more CRC-framed journal records (the exact
	// bytes the primary appended to its own journal).
	Tail []byte
}

// AppendReplAppend appends fr's wire encoding to dst and returns the
// extended slice.
func AppendReplAppend(dst []byte, fr *ReplAppend) []byte {
	e := NewWireEncoder(dst)
	e.Raw(replMagic[:])
	e.buf = binary.LittleEndian.AppendUint16(e.buf, ReplVersion)
	e.String(fr.Source)
	e.Uint(fr.Epoch)
	e.Uint(uint64(fr.SnapCRC))
	e.Uint(fr.BaseBatches)
	e.Uint(fr.BaseRandDraws)
	e.Uint(fr.Batches)
	e.Uint(fr.RandDraws)
	e.Bool(fr.Snapshot != nil)
	e.Uint(uint64(len(fr.Snapshot)))
	e.Raw(fr.Snapshot)
	e.Uint(uint64(len(fr.Tail)))
	e.Raw(fr.Tail)
	return closeFrame(e, len(dst))
}

// DecodeReplAppend parses a replication frame, verifying magic, version
// and the trailing checksum before returning any field. The returned
// frame's Snapshot and Tail alias data.
func DecodeReplAppend(data []byte) (*ReplAppend, error) {
	if len(data) < 8+2+4 {
		return nil, fmt.Errorf("%w: truncated replication frame", ErrCorrupt)
	}
	if string(data[:8]) != string(replMagic[:]) {
		return nil, fmt.Errorf("%w: not a replication frame (bad magic)", ErrBadMagic)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := Checksum(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: replication frame checksum mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	if v := binary.LittleEndian.Uint16(body[8:10]); v != ReplVersion {
		return nil, fmt.Errorf("%w: replication frame is version %d, this build reads %d", ErrVersion, v, ReplVersion)
	}
	dec := NewWireDecoder(body[10:])
	fr := &ReplAppend{
		Source: dec.String(),
		Epoch:  dec.Uint(),
	}
	fr.SnapCRC = uint32(dec.Uint())
	fr.BaseBatches = dec.Uint()
	fr.BaseRandDraws = dec.Uint()
	fr.Batches = dec.Uint()
	fr.RandDraws = dec.Uint()
	hasSnap := dec.Bool()
	snapLen := dec.Uint()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if snapLen > maxReplSection || snapLen > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("%w: snapshot length %d exceeds frame", ErrCorrupt, snapLen)
	}
	snap := dec.Bytes(int(snapLen))
	tailLen := dec.Uint()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if tailLen > maxReplSection || tailLen > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("%w: tail length %d exceeds frame", ErrCorrupt, tailLen)
	}
	fr.Tail = dec.Bytes(int(tailLen))
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if dec.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in replication frame", ErrCorrupt, dec.Remaining())
	}
	if hasSnap {
		fr.Snapshot = snap
		if Checksum(fr.Snapshot) != fr.SnapCRC {
			return nil, fmt.Errorf("%w: shipped snapshot fails its own CRC", ErrCorrupt)
		}
	} else if snapLen != 0 {
		return nil, fmt.Errorf("%w: snapshot bytes present but not flagged", ErrCorrupt)
	}
	return fr, nil
}
