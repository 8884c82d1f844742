// batch.go is the binary batch ingest wire format: the body of
// POST /v1/topics/{t}/batches when Content-Type is
// application/x-triclust-batch, and the matching response body when the
// client's Accept header negotiates it. It exists because JSON
// encode/decode became the dominant per-request cost on the daemon's
// ingest path once the solver, journal and replication layers went
// allocation-free. The frames are written with the snapshot's primitives
// (uvarint counts and lengths, zig-zag varint signed integers, 8-byte
// floats) and the tweet layout a journal record holds (wire.go), so the
// commit path speaks one integer dialect.
//
// # Request frame (application/x-triclust-batch)
//
//	version  uint8    batch wire version (currently 2)
//	time     varint   the batch timestamp (JSON's "time")
//	count    uvarint  number of tweets
//	tweets   count × tweet: text (uvarint length + bytes), tokens
//	                  (uvarint count + 1, then each token as a string;
//	                  0 for nil, i.e. "tokenize the text"), user, time,
//	                  retweetOf, label (varints; label must be NoLabel
//	                  on this wire)
//	crc      uint32   CRC-32C of every preceding byte (the whole body)
//
// # Response frame
//
//	version     uint8    batch wire version (currently 2)
//	time        varint
//	skipped     bool
//	converged   bool
//	iterations  varint
//	ntweets     uvarint; per tweet:  class varint, confidence float64
//	nusers      uvarint; per user:   user varint, class varint, confidence float64
//	crc         uint32   CRC-32C of every preceding byte
//
// Both decoders reject version skew (ErrVersion; a version 1 frame from
// an older client is one), checksum or framing damage (ErrCorrupt), and
// trailing bytes after the checksum — the same strict "exactly one value,
// nothing after it" contract the daemon's JSON decoding enforces. A
// varint must be minimal, so a decoded frame re-encodes to the identical
// bytes (encode∘decode is a fixed point, fuzz-pinned), and a batch never
// drifts between its wire and journal forms.
package codec

import (
	"encoding/binary"
	"fmt"

	"triclust/internal/tgraph"
)

// BatchWireVersion is the current binary batch frame version. Bump it on
// any layout change; decoders reject unknown versions with ErrVersion
// instead of guessing.
const BatchWireVersion = 2

// AppendBatchRequest appends the binary batch request frame for (time,
// tweets) to dst and returns the extended slice. Tweets must be
// unlabeled (Label == NoLabel): the ingest wire carries client data, and
// the JSON path never lets a client plant ground-truth labels either.
func AppendBatchRequest(dst []byte, time int, tweets []tgraph.Tweet) ([]byte, error) {
	for i := range tweets {
		if tweets[i].Label != tgraph.NoLabel {
			return nil, fmt.Errorf("codec: batch wire tweet %d is labeled (%d); the ingest wire carries unlabeled tweets only",
				i, tweets[i].Label)
		}
	}
	e := encoder{buf: append(dst, BatchWireVersion)}
	e.batch(time, tweets)
	return closeFrame(e.buf, len(dst)), nil
}

// closeFrame appends the CRC-32C of buf from offset start on, the trailer
// every frame ends with.
func closeFrame(buf []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(buf, Checksum(buf[start:]))
}

// EncodeBatchRequest is AppendBatchRequest into a fresh slice.
func EncodeBatchRequest(time int, tweets []tgraph.Tweet) ([]byte, error) {
	return AppendBatchRequest(nil, time, tweets)
}

// openBatchFrame validates the envelope every batch frame shares —
// version byte, minimum length, whole-body CRC-32C trailer — and returns
// a decoder over the payload between them.
func openBatchFrame(data []byte) (decoder, error) {
	if len(data) < 1+4 {
		return decoder{}, fmt.Errorf("%w: batch frame truncated (%d bytes)", ErrCorrupt, len(data))
	}
	if v := data[0]; v != BatchWireVersion {
		return decoder{}, fmt.Errorf("%w: batch frame is version %d, this build reads %d", ErrVersion, v, BatchWireVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := Checksum(body), binary.LittleEndian.Uint32(trailer); got != want {
		return decoder{}, fmt.Errorf("%w: batch frame checksum mismatch (body %08x, trailer %08x)", ErrCorrupt, got, want)
	}
	return decoder{buf: body[1:]}, nil
}

// DecodeBatchRequest decodes a binary batch request frame, appending the
// tweets to scratch (pass scratch[:0] to reuse a pooled slice; every
// appended element is fully assigned from the wire, so a reused slice
// can never leak a prior request's tokens). It returns the batch
// timestamp and the extended slice. Damage of any kind — truncation,
// bit flips, trailing bytes, labeled tweets, hostile counts — yields an
// error and no tweets, never a partial result.
func DecodeBatchRequest(data []byte, scratch []tgraph.Tweet) (time int, tweets []tgraph.Tweet, err error) {
	d, err := openBatchFrame(data)
	if err != nil {
		return 0, nil, err
	}
	time, tweets = d.batch(scratch)
	if err := d.done(); err != nil {
		return 0, nil, err
	}
	for i := len(scratch); i < len(tweets); i++ {
		if tweets[i].Label != tgraph.NoLabel {
			return 0, nil, fmt.Errorf("%w: batch frame tweet %d is labeled", ErrCorrupt, i-len(scratch))
		}
	}
	return time, tweets, nil
}

// BatchSentiment is one labeled element of a binary batch response.
type BatchSentiment struct {
	Class      int
	Confidence float64
}

// BatchUserSentiment labels one active user of the batch.
type BatchUserSentiment struct {
	User       int
	Class      int
	Confidence float64
}

// BatchResult is the payload of a binary batch response: the same
// information as the JSON batch response body (class names are derived
// from the class index on both wires; the conformance verdict annotation
// of -conform-mode=flag is JSON-only).
type BatchResult struct {
	Time       int
	Skipped    bool
	Converged  bool
	Iterations int
	Tweets     []BatchSentiment
	Users      []BatchUserSentiment
}

// AppendBatchResponse appends the binary batch response frame to dst and
// returns the extended slice.
func AppendBatchResponse(dst []byte, res *BatchResult) []byte {
	e := encoder{buf: append(dst, BatchWireVersion)}
	e.int(int64(res.Time))
	e.bool(res.Skipped)
	e.bool(res.Converged)
	e.int(int64(res.Iterations))
	e.uint(uint64(len(res.Tweets)))
	for _, s := range res.Tweets {
		e.int(int64(s.Class))
		e.float(s.Confidence)
	}
	e.uint(uint64(len(res.Users)))
	for _, u := range res.Users {
		e.int(int64(u.User))
		e.int(int64(u.Class))
		e.float(u.Confidence)
	}
	return closeFrame(e.buf, len(dst))
}

// DecodeBatchResponse decodes a binary batch response frame. A tweet's
// sentiment is at least a varint and a float, a user's one varint more,
// so a hostile count fails before anything is allocated for it.
func DecodeBatchResponse(data []byte) (*BatchResult, error) {
	d, err := openBatchFrame(data)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{Time: int(d.int()), Skipped: d.bool(), Converged: d.bool(), Iterations: int(d.int())}
	res.Tweets = make([]BatchSentiment, d.count(1, 8))
	for i := range res.Tweets {
		res.Tweets[i] = BatchSentiment{Class: int(d.int()), Confidence: d.float()}
	}
	res.Users = make([]BatchUserSentiment, d.count(2, 8))
	for i := range res.Users {
		res.Users[i] = BatchUserSentiment{User: int(d.int()), Class: int(d.int()), Confidence: d.float()}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return res, nil
}
