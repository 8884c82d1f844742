// batch.go is the binary batch ingest wire format: the body of
// POST /v1/topics/{t}/batches when Content-Type is
// application/x-triclust-batch, and the matching response body when the
// client's Accept header negotiates it. It exists because JSON
// encode/decode became the dominant per-request cost on the daemon's
// ingest path once the solver, journal and replication layers went
// allocation-free; the frames below are built from the fixed-width wire
// primitives (WireEncoder/WireDecoder, CRC-32C) the journal and the
// replication frames use, so those formats share one idiom.
//
// # Request frame (application/x-triclust-batch)
//
//	version  uint8    batch wire version (currently 1)
//	time     int64    the batch timestamp (JSON's "time")
//	count    uint64   number of tweets
//	tweets   count × tweet frame (WireEncoder.Tweet layout: text,
//	                  has-tokens bool, tokens, user, time, retweetOf,
//	                  label — label must be NoLabel on this wire)
//	crc      uint32   CRC-32C of every preceding byte (the whole body)
//
// # Response frame
//
//	version     uint8    batch wire version (currently 1)
//	time        int64
//	skipped     bool
//	converged   bool
//	iterations  int64
//	ntweets     uint64; per tweet:  class int64, confidence float64
//	nusers      uint64; per user:   user int64, class int64, confidence float64
//	crc         uint32   CRC-32C of every preceding byte
//
// Both decoders reject version skew (ErrVersion), checksum or framing
// damage (ErrCorrupt), and trailing bytes after the checksum — the same
// strict "exactly one value, nothing after it" contract the daemon's
// JSON decoding enforces. A decoded frame re-encodes to the identical
// bytes (encode∘decode is a fixed point, fuzz-pinned), so a batch never
// drifts between its wire and journal forms.
package codec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"triclust/internal/tgraph"
)

// BatchWireVersion is the current binary batch frame version. Bump it on
// any layout change; decoders reject unknown versions with ErrVersion
// instead of guessing.
const BatchWireVersion = 1

// Conservative lower bounds on one encoded response element, used to
// refuse hostile count fields before allocating: a sentiment is
// class+confidence (WireDecoder.Batch holds the tweets' bound).
const (
	minSentimentBytes     = 8 + 8
	minUserSentimentBytes = 8 + 8 + 8
)

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
	e := NewWireEncoder(append(slices.Grow(dst, 1+BatchSize(tweets)+4), BatchWireVersion))
	e.Batch(time, tweets)
	return closeFrame(e, len(dst)), nil
}

// closeFrame appends the CRC-32C of everything e encoded from offset start
// on, the trailer every frame ends with, and returns the bytes.
func closeFrame(e *WireEncoder, start int) []byte {
	return binary.LittleEndian.AppendUint32(e.buf, Checksum(e.buf[start:]))
}

// EncodeBatchRequest is AppendBatchRequest into a fresh slice.
func EncodeBatchRequest(time int, tweets []tgraph.Tweet) ([]byte, error) {
	return AppendBatchRequest(nil, time, tweets)
}

// openBatchFrame validates the envelope every batch frame shares —
// version byte, minimum length, whole-body CRC-32C trailer — and returns
// a decoder over the payload between them.
func openBatchFrame(data []byte) (*WireDecoder, error) {
	if len(data) < 1+4 {
		return nil, fmt.Errorf("%w: batch frame truncated (%d bytes)", ErrCorrupt, len(data))
	}
	if v := data[0]; v != BatchWireVersion {
		return nil, fmt.Errorf("%w: batch frame is version %d, this build reads %d", ErrVersion, v, BatchWireVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := Checksum(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: batch frame checksum mismatch (body %08x, trailer %08x)", ErrCorrupt, got, want)
	}
	return NewWireDecoder(body[1:]), nil
}

// closeBatchFrame enforces the strict tail contract after a successful
// payload decode: a frame carries exactly one value and nothing after it.
func closeBatchFrame(d *WireDecoder) error {
	if err := d.Err(); err != nil {
		return err
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes inside batch frame", ErrCorrupt, n)
	}
	return nil
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
	time, tweets = d.Batch(scratch)
	if err := closeBatchFrame(d); err != nil {
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
	e := NewWireEncoder(append(dst, BatchWireVersion))
	e.Int(int64(res.Time))
	e.Bool(res.Skipped)
	e.Bool(res.Converged)
	e.Int(int64(res.Iterations))
	e.Uint(uint64(len(res.Tweets)))
	for _, s := range res.Tweets {
		e.Int(int64(s.Class))
		e.Float(s.Confidence)
	}
	e.Uint(uint64(len(res.Users)))
	for _, u := range res.Users {
		e.Int(int64(u.User))
		e.Int(int64(u.Class))
		e.Float(u.Confidence)
	}
	return closeFrame(e, len(dst))
}

// DecodeBatchResponse decodes a binary batch response frame.
func DecodeBatchResponse(data []byte) (*BatchResult, error) {
	d, err := openBatchFrame(data)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{}
	res.Time = int(d.Int())
	res.Skipped = d.Bool()
	res.Converged = d.Bool()
	res.Iterations = int(d.Int())
	nt := d.Uint()
	if limit := uint64(d.Remaining()/minSentimentBytes) + 1; nt > limit {
		return nil, fmt.Errorf("%w: batch response claims %d tweet sentiments in %d bytes", ErrCorrupt, nt, d.Remaining())
	}
	res.Tweets = make([]BatchSentiment, 0, nt)
	for i := uint64(0); i < nt && d.Err() == nil; i++ {
		res.Tweets = append(res.Tweets, BatchSentiment{Class: int(d.Int()), Confidence: d.Float()})
	}
	nu := d.Uint()
	if limit := uint64(d.Remaining()/minUserSentimentBytes) + 1; nu > limit {
		return nil, fmt.Errorf("%w: batch response claims %d user sentiments in %d bytes", ErrCorrupt, nu, d.Remaining())
	}
	res.Users = make([]BatchUserSentiment, 0, nu)
	for i := uint64(0); i < nu && d.Err() == nil; i++ {
		res.Users = append(res.Users, BatchUserSentiment{User: int(d.Int()), Class: int(d.Int()), Confidence: d.Float()})
	}
	if err := closeBatchFrame(d); err != nil {
		return nil, err
	}
	return res, nil
}
