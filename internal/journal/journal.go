// Package journal implements the append-only batch journal that gives the
// daemon O(batch) durability between snapshots. Where a snapshot is a full
// copy of a topic's state (O(state) to write), a journal record is the
// *delta* of one processed batch: the batch inputs plus a post-batch
// fingerprint (batch counter and the solver's random-stream position).
// Because a topic's pipeline is deterministic — canonicalized batches, a
// draw-counted random stream — replaying the journal tail through
// Topic.Process after loading the snapshot it extends reproduces the live
// topic bit-for-bit, and the fingerprints verify that it did.
//
// # Format
//
// A journal reuses internal/codec's framing idiom (a little-endian
// header, CRC-32C):
//
//	magic    [8]byte  "TRICJRNL"
//	version  uint16   journal format version (currently 2)
//	snapCRC  uint32   CRC-32C of the snapshot file this journal extends
//	hdrCRC   uint32   CRC-32C of the 14 header bytes above
//
// followed by zero or more records, each
//
//	kind     uint8    record type (1 = batch)
//	size     uint32   payload length in bytes
//	payload  [size]byte
//	crc      uint32   CRC-32C of kind ‖ size ‖ payload
//
// The batch payload is codec.AppendRecord's encoding of (time, tweets,
// batches, randDraws), in the snapshot's integer dialect: uvarint counts
// and lengths, zig-zag varint signed integers. Appends are fsynced before
// the batch is acknowledged, so an acknowledged batch survives a crash; a
// crash *during* an append leaves a torn final record, which Load
// tolerates by truncating at the first record whose CRC or framing fails
// (the torn batch was never acknowledged). A journal whose header is
// unreadable is undecodable — callers quarantine it and fall back to the
// snapshot alone.
//
// Load and Open read version 2 only. Any other header version is
// ErrVersion, which is not corruption: a version 1 file an older build
// left holds acked batches this build cannot decode, so the store
// quarantines it beside the snapshot it extends rather than serve that
// snapshot alone.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"triclust/internal/codec"
	"triclust/internal/fault"
)

// Version is the journal format version this build writes.
const Version = 2

var magic = [8]byte{'T', 'R', 'I', 'C', 'J', 'R', 'N', 'L'}

const (
	recBatch = 1
	// maxRecordSize bounds a single record's payload so a corrupted or
	// hostile length field cannot force a huge allocation.
	maxRecordSize = 1 << 28
	// maxPooledFrame is the largest encoding buffer framePool keeps, so
	// one huge batch does not pin its buffer.
	maxPooledFrame = 1 << 20
)

var (
	// ErrBadMagic marks a file that is not a triclust journal at all.
	ErrBadMagic = errors.New("journal: not a triclust journal (bad magic)")
	// ErrVersion marks a journal of a format version this build does not read.
	ErrVersion = errors.New("journal: unsupported journal version")
	// ErrCorrupt marks an undecodable header or record framing.
	ErrCorrupt = errors.New("journal: corrupt journal")
)

// Record is one processed batch's delta: its inputs and the post-batch
// fingerprint used to verify replay.
type Record = codec.Record

// header is the fixed journal prelude: magic, version, the CRC of the
// snapshot this journal extends, and a CRC over those bytes.
func encodeHeader(snapCRC uint32) []byte {
	buf := make([]byte, 0, 18)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, snapCRC)
	return binary.LittleEndian.AppendUint32(buf, codec.Checksum(buf))
}

func decodeHeader(buf []byte) (snapCRC uint32, rest []byte, err error) {
	if len(buf) < 18 {
		return 0, nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if !bytes.Equal(buf[:8], magic[:]) {
		return 0, nil, ErrBadMagic
	}
	if want := binary.LittleEndian.Uint32(buf[14:18]); codec.Checksum(buf[:14]) != want {
		return 0, nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if version := binary.LittleEndian.Uint16(buf[8:10]); version != Version {
		return 0, nil, fmt.Errorf("%w: journal is version %d, this build reads only %d", ErrVersion, version, Version)
	}
	return binary.LittleEndian.Uint32(buf[10:14]), buf[18:], nil
}

// Writer appends CRC-framed records to a journal file, fsyncing each
// append so an acknowledged record survives a crash. All file I/O goes
// through the fault.FS the Writer was created with, so every durable
// syscall here is a named failpoint the crash-point matrix can hit.
type Writer struct {
	f    fault.File
	size int64
	// broken latches after a failed Rotate or TruncateTail: the file's
	// contents no longer match w.size (a re-header or truncate died
	// half-way), so further appends would land at an unknowable offset.
	// The only way forward is Close + Create (or quarantine at the next
	// Load, whose header checksum catches the half-written state).
	broken bool
}

// Create truncates (or creates) the journal at path, writes a header
// naming the snapshot it extends, and fsyncs it. The caller owns syncing
// the directory if the file is new.
func Create(fsys fault.FS, path string, snapCRC uint32) (*Writer, error) {
	f, err := fsys.OpenFile("journal.create.open", path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := encodeHeader(snapCRC)
	if _, err := f.Write("journal.create.write", hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync("journal.create.sync"); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, size: int64(len(hdr))}, nil
}

// framePool holds the buffers frames are encoded into before EncodeFrame
// copies them out at their exact length.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// EncodeFrame returns rec's CRC-framed wire encoding — the exact bytes
// Append writes. Exposed so the replication shipper can append a record
// locally and ship the identical frame to follower shards, which verify
// and store it without re-encoding.
func EncodeFrame(rec *Record) ([]byte, error) {
	// kind, payload size (patched once the payload is written), payload,
	// CRC. Encoding into a reused buffer and copying out costs the frame
	// one allocation, at its exact length, with nothing to size it by.
	p := framePool.Get().(*[]byte)
	buf := codec.AppendRecord(append((*p)[:0], recBatch, 0, 0, 0, 0), rec)
	if size := len(buf) - 5; size > maxRecordSize {
		return nil, fmt.Errorf("journal: record payload %d exceeds limit", size)
	}
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)-5))
	buf = binary.LittleEndian.AppendUint32(buf, codec.Checksum(buf))
	frame := make([]byte, len(buf))
	copy(frame, buf)
	if cap(buf) <= maxPooledFrame {
		*p = buf
		framePool.Put(p)
	}
	return frame, nil
}

// DecodeFrame decodes one framed record from the front of buf, returning
// its decoded form and encoded length. ok is false when the frame is
// truncated, its checksum fails, or its payload does not decode — all of
// which Load treats as the torn tail.
func DecodeFrame(buf []byte) (rec *Record, n int, ok bool) {
	if len(buf) < 9 {
		return nil, 0, false
	}
	if buf[0] != recBatch {
		return nil, 0, false
	}
	size := binary.LittleEndian.Uint32(buf[1:5])
	if size > maxRecordSize || uint64(len(buf)) < 9+uint64(size) {
		return nil, 0, false
	}
	end := 5 + int(size)
	want := binary.LittleEndian.Uint32(buf[end : end+4])
	if codec.Checksum(buf[:end]) != want {
		return nil, 0, false
	}
	rec, err := codec.DecodeRecord(buf[5:end])
	if err != nil {
		return nil, 0, false
	}
	return rec, end + 4, true
}

// Append marshals rec, appends it and fsyncs. The record is durable when
// Append returns nil.
func (w *Writer) Append(rec *Record) error {
	frame, err := EncodeFrame(rec)
	if err != nil {
		return err
	}
	return w.AppendFrames(frame)
}

// AppendFrames appends pre-encoded record frames (from EncodeFrame, or
// received off the replication wire after verification) and fsyncs once.
// Callers own frame validity — the bytes are written as given.
func (w *Writer) AppendFrames(frames []byte) error {
	if w.f == nil {
		return errors.New("journal: writer is closed")
	}
	if w.broken {
		return errors.New("journal: writer broken by a failed rotate/truncate")
	}
	if _, err := w.f.Write("journal.append.write", frames); err != nil {
		return err
	}
	if err := w.f.Sync("journal.append.sync"); err != nil {
		return err
	}
	w.size += int64(len(frames))
	return nil
}

// TruncateTail cuts the file back to the last successfully appended
// record. After a failed Append (a partial write, ENOSPC mid-frame) the
// on-disk tail is ambiguous — bytes of a record that was never
// acknowledged; truncating restores the journal to exactly its state
// before the failed append, so recovery never has to guess.
func (w *Writer) TruncateTail() error {
	if w.f == nil {
		return errors.New("journal: writer is closed")
	}
	if err := w.f.Truncate("journal.truncate.truncate", w.size); err != nil {
		w.broken = true
		return err
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.broken = true
		return err
	}
	return w.f.Sync("journal.truncate.sync")
}

// Size returns the current journal file size in bytes.
func (w *Writer) Size() int64 { return w.size }

// Rotate restarts the journal in place: it truncates the file on the open
// descriptor and writes a fresh header naming the snapshot the journal
// extends from now on. This is the compaction hook — after a snapshot
// rewrite (the periodic compaction point, or a topic hand-off's final
// drain) the journal must restart empty against the new snapshot's
// identity, and rotating the existing descriptor avoids the close/reopen
// of Create on every compaction. A crash between the truncate and the
// header fsync leaves an undecodable header, which recovery quarantines
// and serves the (just-written, complete) snapshot alone — the same crash
// window Create has.
func (w *Writer) Rotate(snapCRC uint32) error {
	if w.f == nil {
		return errors.New("journal: writer is closed")
	}
	if w.broken {
		return errors.New("journal: writer broken by a failed rotate/truncate")
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	// From the truncate on, a failure leaves the file half re-headered —
	// mark the writer broken so no append can extend a file whose real
	// length diverged from w.size. Every such half-state is undecodable
	// to Load (truncated or checksum-failing header, or a header whose
	// snapCRC no longer matches any snapshot), so recovery quarantines
	// it rather than misparsing — see TestRotateInterruptedStates.
	if err := w.f.Truncate("journal.rotate.truncate", 0); err != nil {
		w.broken = true
		return err
	}
	hdr := encodeHeader(snapCRC)
	if _, err := w.f.Write("journal.rotate.write", hdr); err != nil {
		w.broken = true
		return err
	}
	if err := w.f.Sync("journal.rotate.sync"); err != nil {
		w.broken = true
		return err
	}
	w.size = int64(len(hdr))
	return nil
}

// Close closes the underlying file. The journal remains on disk.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Open loads an existing journal and returns a Writer positioned to
// append after its last intact record, plus the loaded contents. A torn
// final record (never acknowledged, by the append protocol) is truncated
// away so appended frames always follow intact ones. This is the replica
// store's restart path: a follower resumes appending a primary's shipped
// frames to the tail it already holds.
func Open(fsys fault.FS, path string) (*Writer, *Journal, error) {
	j, err := Load(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	f, err := fsys.OpenFile("journal.open.open", path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if j.Torn {
		if err := f.Truncate("journal.open.truncate", j.Size); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(j.Size, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Writer{f: f, size: j.Size}, j, nil
}

// Journal is the result of loading a journal file for recovery.
type Journal struct {
	// SnapCRC names the snapshot this journal extends: recovery replays
	// the records only on top of the snapshot file with this checksum.
	SnapCRC uint32
	// Records are the decoded batch deltas, in append order.
	Records []*Record
	// Torn reports that trailing bytes after the last intact record
	// failed their CRC or framing — the signature of a crash mid-append.
	// The torn tail was never acknowledged, so recovery proceeds with the
	// intact prefix.
	Torn bool
	// Size is the file offset just past the last intact record — the
	// position Open resumes appending at. It is the offset actually
	// consumed while decoding, so it stays correct even if encode and
	// decode ever disagree about a record's framing.
	Size int64
}

// Load reads a journal file, tolerating a torn final record. It fails
// with ErrBadMagic/ErrCorrupt only when the header itself is undecodable
// (the caller should quarantine such a file), and with ErrVersion when the
// header names another version (the caller quarantines it with the
// snapshot it extends); record-level corruption truncates instead, per the
// append-only crash model.
func Load(fsys fault.FS, path string) (*Journal, error) {
	data, err := fsys.ReadFile("journal.load.read", path)
	if err != nil {
		return nil, err
	}
	snapCRC, rest, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	j := &Journal{SnapCRC: snapCRC, Size: int64(len(data) - len(rest))}
	for len(rest) > 0 {
		rec, n, ok := DecodeFrame(rest)
		if !ok {
			j.Torn = true
			break
		}
		j.Records = append(j.Records, rec)
		j.Size += int64(n)
		rest = rest[n:]
	}
	return j, nil
}

// CRCWriter tees writes to an inner writer while accumulating the
// CRC-32C of everything written, so a snapshot and its journal-header
// identity are produced in one pass.
type CRCWriter struct {
	w   io.Writer
	crc uint32
}

// NewCRCWriter wraps w, tracking the CRC-32C of all bytes written.
func NewCRCWriter(w io.Writer) *CRCWriter {
	return &CRCWriter{w: w}
}

// Write implements io.Writer.
func (c *CRCWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = codec.ChecksumUpdate(c.crc, p[:n])
	return n, err
}

// Sum returns the CRC-32C of everything written so far.
func (c *CRCWriter) Sum() uint32 { return c.crc }
