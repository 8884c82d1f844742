// repl.go defines the replication wire frame: the body of
// POST /v1/replica/{topic}/append, by which a topic's primary ships its
// journal tail (and, on first contact or after a compaction, the full
// base snapshot) to the topic's ring successors. The frame takes the
// snapshot format's framing idiom — a magic + version prelude, and a
// trailing CRC-32C over everything before it, so a truncated or corrupted
// ship is rejected whole and a follower never applies half a frame — and
// its primitives between them:
//
//	magic          [8]byte  "TRICREPL"
//	version        uint16   replication frame version (currently 2)
//	source         string   uvarint length + bytes
//	epoch, snapCRC, baseBatches, baseRandDraws, batches, randDraws
//	               uvarint each
//	snapshot       uvarint length + 1, then the bytes; 0 when absent
//	tail           uvarint length, then the journal record frames
//	crc            uint32   CRC-32C of every preceding byte
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ReplVersion is the current replication frame version.
const ReplVersion = 2

var replMagic = [8]byte{'T', 'R', 'I', 'C', 'R', 'E', 'P', 'L'}

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
	e := encoder{buf: binary.LittleEndian.AppendUint16(append(dst, replMagic[:]...), ReplVersion)}
	e.string(fr.Source)
	for _, v := range []uint64{fr.Epoch, uint64(fr.SnapCRC), fr.BaseBatches, fr.BaseRandDraws, fr.Batches, fr.RandDraws} {
		e.uint(v)
	}
	if fr.Snapshot == nil {
		e.uint(0)
	} else {
		e.uint(uint64(len(fr.Snapshot)) + 1)
		e.buf = append(e.buf, fr.Snapshot...)
	}
	e.uint(uint64(len(fr.Tail)))
	e.buf = append(e.buf, fr.Tail...)
	return closeFrame(e.buf, len(dst))
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
	d := decoder{buf: body[10:]}
	fr := &ReplAppend{Source: d.string(), Epoch: d.uint()}
	if crc := d.uint(); crc <= math.MaxUint32 {
		fr.SnapCRC = uint32(crc)
	} else {
		d.fail("snapshot CRC wider than 32 bits")
	}
	fr.BaseBatches, fr.BaseRandDraws = d.uint(), d.uint()
	fr.Batches, fr.RandDraws = d.uint(), d.uint()
	if n := d.uint(); n > 0 {
		fr.Snapshot = d.bytes(n - 1)
	}
	fr.Tail = d.bytes(d.uint())
	if err := d.done(); err != nil {
		return nil, err
	}
	if fr.Snapshot != nil && Checksum(fr.Snapshot) != fr.SnapCRC {
		return nil, fmt.Errorf("%w: shipped snapshot fails its own CRC", ErrCorrupt)
	}
	return fr, nil
}
