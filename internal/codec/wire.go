// wire.go holds what the commit path's formats — the batch journal's
// records, the binary batch frames and the replication frames — share:
// the CRC-32C (Castagnoli) checksum every one of them ends with, and the
// tweet, batch and record layouts. They are written with the snapshot's
// primitives (encoder/decoder): uvarint counts and lengths, zig-zag varint
// signed integers, 8-byte floats.
package codec

import (
	"fmt"
	"hash/crc32"

	"triclust/internal/tgraph"
)

// Checksum returns the CRC-32C (Castagnoli) checksum every triclust
// on-disk format frames its payloads with.
func Checksum(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
}

// ChecksumUpdate extends a running CRC-32C with more bytes (the
// incremental form of Checksum).
func ChecksumUpdate(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, castagnoli, p)
}

// Record is one processed batch's delta, the payload of a batch journal
// record: its inputs and the post-batch fingerprint replay is verified
// against.
type Record struct {
	// Time is the batch timestamp passed to Topic.Process.
	Time int
	// Tweets are the batch inputs exactly as processed (Tokens keeps its
	// nil-vs-empty distinction: nil means the text was tokenized).
	Tweets []tgraph.Tweet
	// Batches is the topic's non-empty batch count after this batch.
	Batches int
	// RandDraws is the solver's random-stream position after this batch.
	RandDraws uint64
}

// AppendRecord appends rec's payload to dst: the batch, then Batches and
// RandDraws.
func AppendRecord(dst []byte, rec *Record) []byte {
	e := encoder{buf: dst}
	e.batch(rec.Time, rec.Tweets)
	e.int(int64(rec.Batches))
	e.uint(rec.RandDraws)
	return e.buf
}

// DecodeRecord decodes a payload AppendRecord wrote, and nothing after it.
func DecodeRecord(payload []byte) (*Record, error) {
	d, rec := decoder{buf: payload}, &Record{}
	rec.Time, rec.Tweets = d.batch(nil)
	rec.Batches = int(d.int())
	rec.RandDraws = d.uint()
	if err := d.done(); err != nil {
		return nil, err
	}
	return rec, nil
}

// tweet writes one tweet. Its token list is written as its length plus
// one, and a nil list as 0: nil means "tokenize the text", so replay must
// reproduce it, and each of nil and empty has one encoding.
func (e *encoder) tweet(tw *tgraph.Tweet) {
	e.string(tw.Text)
	if tw.Tokens == nil {
		e.uint(0)
	} else {
		e.uint(uint64(len(tw.Tokens)) + 1)
		for _, s := range tw.Tokens {
			e.string(s)
		}
	}
	e.int(int64(tw.User))
	e.int(int64(tw.Time))
	e.int(int64(tw.RetweetOf))
	e.int(int64(tw.Label))
}

// batch writes a batch body — the timestamp, the tweet count, the tweets —
// the run a journal record and a binary batch request both start with.
func (e *encoder) batch(time int, tweets []tgraph.Tweet) {
	e.int(int64(time))
	e.uint(uint64(len(tweets)))
	for i := range tweets {
		e.tweet(&tweets[i])
	}
}

// tweet reads one tweet written by encoder.tweet.
func (d *decoder) tweet() (tw tgraph.Tweet) {
	tw.Text = d.string()
	if tokens := d.count(1, 0); tokens > 0 { // the list's length plus one; 0 for nil
		// The list decoders canonicalize empty to nil; keep the explicit
		// empty slice ("already tokenized, no features").
		if tw.Tokens = d.list(tokens-1, false, false); tw.Tokens == nil {
			tw.Tokens = []string{}
		}
	}
	tw.User = int(d.int())
	tw.Time = int(d.int())
	tw.RetweetOf = int(d.int())
	tw.Label = int(d.int())
	return tw
}

// batch reads a batch body written by encoder.batch, appending the tweets
// to scratch (every appended element is fully assigned from the wire). A
// tweet is at least six integers — the lengths of its text and of its
// token list, and four fields — so a count the remaining bytes cannot
// hold fails before a tweet is read, and the slice grows only as tweets
// decode: a crafted body buys no allocation its own bytes do not back
// (CRC-32C detects corruption, not tampering).
func (d *decoder) batch(scratch []tgraph.Tweet) (time int, tweets []tgraph.Tweet) {
	time = int(d.int())
	tweets = scratch
	for n := d.count(6, 0); n > 0 && d.err == nil; n-- {
		tweets = append(tweets, d.tweet())
	}
	return time, tweets
}

// done returns the first decode error, or ErrCorrupt if bytes remain: a
// frame carries exactly one value and nothing after it.
func (d *decoder) done() error {
	if d.err == nil && len(d.buf) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.buf)))
	}
	return d.err
}
