// wire.go holds the fixed-width stream primitives — little-endian 8-byte
// integers, IEEE-754 floats, length-prefixed strings and slices, and the
// CRC-32C (Castagnoli) checksum — that the batch journal, the binary
// batch frames and the replication frames are built from. Their layout is
// pinned byte for byte by those formats' own versions and fixtures; the
// snapshot format's compact primitives are in codec.go and share only the
// decoder, which reads both widths.
package codec

import (
	"encoding/binary"
	"hash/crc32"
	"math"

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

// WireEncoder appends the fixed-width primitives to a byte slice. Every
// format built from them is framed by a checksum over the encoded bytes,
// so every caller encodes into memory: there is no writer behind the
// encoder and nothing that can fail.
type WireEncoder struct {
	buf []byte
}

// NewWireEncoder returns an encoder appending to dst.
func NewWireEncoder(dst []byte) *WireEncoder {
	return &WireEncoder{buf: dst}
}

// Bytes returns dst extended by everything encoded so far.
func (e *WireEncoder) Bytes() []byte { return e.buf }

// Raw appends p as it is, with no length in front.
func (e *WireEncoder) Raw(p []byte) { e.buf = append(e.buf, p...) }

// Uint writes a little-endian uint64.
func (e *WireEncoder) Uint(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int writes a two's-complement int64.
func (e *WireEncoder) Int(v int64) { e.Uint(uint64(v)) }

// Bool writes a single 0/1 byte.
func (e *WireEncoder) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Float writes a float64 as its IEEE-754 bits, little-endian.
func (e *WireEncoder) Float(v float64) { e.Uint(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (e *WireEncoder) String(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// StringSlice writes a length-prefixed string slice.
func (e *WireEncoder) StringSlice(ss []string) {
	e.Uint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Tweet writes one tweet, preserving the nil-vs-empty distinction of its
// Tokens (nil means "tokenize the text", so replay must reproduce it).
func (e *WireEncoder) Tweet(tw *tgraph.Tweet) {
	e.String(tw.Text)
	e.Bool(tw.Tokens != nil)
	e.StringSlice(tw.Tokens)
	e.Int(int64(tw.User))
	e.Int(int64(tw.Time))
	e.Int(int64(tw.RetweetOf))
	e.Int(int64(tw.Label))
}

// Batch writes a batch body — the timestamp, the tweet count, the tweets —
// the run a journal record and a binary batch request both start with.
func (e *WireEncoder) Batch(time int, tweets []tgraph.Tweet) {
	e.Int(int64(time))
	e.Uint(uint64(len(tweets)))
	for i := range tweets {
		e.Tweet(&tweets[i])
	}
}

// BatchSize returns the number of bytes Batch writes for tweets, so a
// frame can be allocated once at its exact length.
func BatchSize(tweets []tgraph.Tweet) int {
	n := 8 + 8
	for i := range tweets {
		// text, has-tokens, token count, user, time, retweetOf, label
		n += 8 + len(tweets[i].Text) + 1 + 8 + 4*8
		for _, s := range tweets[i].Tokens {
			n += 8 + len(s)
		}
	}
	return n
}

// WireDecoder reads the fixed-width primitives from a byte slice. Errors
// are sticky and out-of-bounds reads fail with ErrCorrupt.
type WireDecoder struct {
	dec decoder
}

// NewWireDecoder returns a decoder over buf.
func NewWireDecoder(buf []byte) *WireDecoder {
	return &WireDecoder{dec: decoder{buf: buf, fixed: true}}
}

// Err returns the first decode error, if any.
func (d *WireDecoder) Err() error { return d.dec.err }

// Remaining returns the number of unread bytes.
func (d *WireDecoder) Remaining() int { return len(d.dec.buf) }

// Bytes reads n raw bytes, aliasing the decoder's buffer (the caller
// must copy if it outlives the input). Negative or past-end lengths fail
// with ErrCorrupt.
func (d *WireDecoder) Bytes(n int) []byte {
	if n < 0 {
		d.dec.fail("negative byte count")
		return nil
	}
	return d.dec.bytes(uint64(n))
}

// Uint reads a little-endian uint64.
func (d *WireDecoder) Uint() uint64 { return d.dec.uint() }

// Int reads a two's-complement int64.
func (d *WireDecoder) Int() int64 { return d.dec.int() }

// Bool reads a 0/1 byte.
func (d *WireDecoder) Bool() bool { return d.dec.bool() }

// Float reads a float64 written by WireEncoder.Float.
func (d *WireDecoder) Float() float64 { return d.dec.float() }

// String reads a length-prefixed string.
func (d *WireDecoder) String() string { return d.dec.string() }

// Tweet reads one tweet written by WireEncoder.Tweet.
func (d *WireDecoder) Tweet() tgraph.Tweet {
	var tw tgraph.Tweet
	tw.Text = d.dec.string()
	hasTokens := d.dec.bool()
	tw.Tokens = d.dec.stringList(false, false)
	if hasTokens && tw.Tokens == nil {
		// The slice decoders canonicalize empty to nil; restore the
		// explicit empty slice ("already tokenized, no features").
		tw.Tokens = []string{}
	} else if !hasTokens {
		tw.Tokens = nil
	}
	tw.User = int(d.dec.int())
	tw.Time = int(d.dec.int())
	tw.RetweetOf = int(d.dec.int())
	tw.Label = int(d.dec.int())
	return tw
}

// Batch reads a batch body written by WireEncoder.Batch, appending the
// tweets to scratch (every appended element is fully assigned from the
// wire). A tweet encodes to at least 49 bytes — its four integers, the
// lengths of its text and of its token list, the has-tokens byte — so a
// count the remaining bytes cannot hold fails before a tweet is read, and
// the slice grows only as tweets decode: a crafted body buys no allocation
// its own bytes do not back (CRC-32C detects corruption, not tampering).
func (d *WireDecoder) Batch(scratch []tgraph.Tweet) (time int, tweets []tgraph.Tweet) {
	time = int(d.dec.int())
	tweets = scratch
	for n := d.dec.count(6, 1); n > 0 && d.dec.err == nil; n-- {
		tweets = append(tweets, d.Tweet())
	}
	return time, tweets
}
