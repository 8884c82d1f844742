// Package codec serializes the full state of a topic — vocabulary, Sf0
// prior, solver factors and history, user universe, timestamps and
// configuration (an engine.State) — into a self-describing, versioned
// binary snapshot, and restores it.
//
// # Format
//
// A snapshot is:
//
//	magic    [8]byte  "TRICSNAP"
//	version  uint16   format version (currently 4)
//	length   uint64   payload length in bytes
//	payload  [length]byte
//	crc      uint32   CRC-32C (Castagnoli) of the payload
//
// The payload is a sequence of tagged sections, each
//
//	tag      uint8    section identifier
//	size     uint64   body length in bytes
//	body     [size]byte
//
// terminated by tag 0. Decoders skip sections with unknown tags, so later
// revisions of a version can add sections without breaking its readers;
// removing or reshaping an existing section requires a version bump.
// The framing above is fixed-width little-endian. Inside a section body:
//
//	count, length, index, counter   uvarint (minimal encoding only)
//	timestamp, label, seed          zigzag varint
//	float                           IEEE-754 bits, 8 bytes little-endian
//	bool                            one byte, 0 or 1
//	[]bool                          uvarint bit count + bitset, LSB first,
//	                                padding bits zero
//	string, slice, map              count-prefixed
//	matrix                          form byte, then the form's body
//
// # Matrix forms
//
// A snapshot stores no matrix the rest of it determines. The form byte
// says how a matrix is held:
//
//	0 absent    no body; the matrix is nil. Legal wherever a matrix is.
//	1 dense     rows, cols, rows×cols floats in row order. Legal wherever
//	            a matrix is.
//	2 dict      a row dictionary: rows, cols, d, the d distinct rows in
//	            order of first use (d×cols floats), then one index per
//	            row. Rows are distinct by their bits (−0 is not +0, NaN
//	            payloads differ), d ≤ 16 and cols ≤ 8, every dictionary
//	            row is used, and index i may name a row first used at or
//	            before row i only — so a matrix has one dictionary.
//	            Legal for Sf0 only, whose rows are the lexicon's few class
//	            priors; Encode writes it whenever the limits allow and
//	            dense beyond them.
//	3 derived   no body. Legal for the newest feature snapshot of the
//	            online section only, and only after a factors section
//	            whose Sf has one row per bit of the snapshot's mask: the
//	            matrix is that Sf with every row L1-normalized, which is
//	            what the solver records after a step.
//
// The derivation of form 3 is part of the format. For each row r of the
// factors section's Sf, with k columns: s is +0 plus r[0], r[1], …,
// r[k−1] added in that order; if s == 0 every entry of the derived row is
// 1/k; otherwise every entry is r[j] × (1/s) — the reciprocal taken once,
// then one multiplication per entry — all in IEEE-754 binary64, round to
// nearest even, nothing fused. Encode elides the matrix only after
// checking: it computes the derivation and compares bits, and writes the
// matrix dense on any difference (no factors section, a last solve that
// is not the snapshot's source, a derived NaN, whose payload is the
// hardware's choice), so every state round-trips bit for bit. The factors
// section is written in front of the online section for this.
//
// Map sections are written in sorted key order and the solver exports its
// history in a canonical form (core.OnlineState), so encoding is
// deterministic: equal states produce byte-identical snapshots, and so do
// equal streams — two topics that processed the same batches, whatever
// snapshots and restores lay in between. Which form a matrix takes is a
// function of the state alone. Floats are never re-quantized, so a
// restore is bit-identical.
//
// Version 3 had every matrix dense (the form byte was a presence bool,
// the same two values) and the factors section after the online one.
// Version 2 had version 3's sections with every integer as 8 fixed bytes
// and every []bool as a byte per element, and stored the tweet and user
// factors of the last solve, which no restored topic reads. Decode still
// reads both (the same decoder, switched by the header's version field);
// Encode writes version 4 only. The fixed-width primitives live on in
// wire.go for the journal and frame formats.
//
// The online section names the solver's random generator alongside the
// recorded stream position, because a draw position is only replayable on
// the generator that produced it; decoders reject snapshots recorded
// against a generator they do not implement.
//
// Integrity is checked before any payload parsing: a snapshot whose CRC,
// magic, version or framing does not match is rejected with ErrCorrupt /
// ErrBadMagic / ErrVersion, never partially applied.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// Version is the snapshot format version Encode writes; Decode reads
// oldestVersion through Version, so an upgraded daemon loads its data dir.
// Version 4 (versionForms) stopped storing matrices the rest of the
// snapshot determines; version 3 (versionCompact) made section bodies
// compact (varints, bitsets) and dropped the dead tweet and user factors
// of its fixed-width predecessor. Version 2 had inserted the
// random-generator identifier into the online section when the solver's
// PRNG moved to SplitMix64; version-1 snapshots recorded stream positions
// of a different generator and are rejected with ErrVersion rather than
// replayed on the wrong stream.
const (
	Version        = 4
	oldestVersion  = 2
	versionCompact = 3
	versionForms   = 4
)

// Matrix forms (see the package comment). Before versionForms the byte was
// a presence bool: formAbsent and formDense, by the same values.
const (
	formAbsent  = 0
	formDense   = 1
	formDict    = 2
	formDerived = 3
)

// A row dictionary holds at most dictMaxRows distinct rows of at most
// dictMaxCols columns. The limits are the format's: they keep the
// encoder's and the decoder's tables fixed-size and bound what one index
// byte of a forged snapshot can make the decoder allocate (dictMaxCols
// floats).
const (
	dictMaxRows = 16
	dictMaxCols = 8
)

// headerLen is the fixed header: magic, version, payload length.
const headerLen = 18

var magic = [8]byte{'T', 'R', 'I', 'C', 'S', 'N', 'A', 'P'}

// maxPayload bounds the payload length a decoder will accept, guarding
// against absurd allocations from a corrupted or hostile length field.
const maxPayload = 1 << 31

var (
	// ErrBadMagic marks input that is not a triclust snapshot at all.
	ErrBadMagic = errors.New("codec: not a triclust snapshot (bad magic)")
	// ErrVersion marks a snapshot written by an unknown format version.
	ErrVersion = errors.New("codec: unsupported snapshot version")
	// ErrCorrupt marks a snapshot that fails the checksum or framing.
	ErrCorrupt = errors.New("codec: corrupt snapshot")
)

// Section tags of the snapshot format. Tags 1–7 date from version 1;
// tagEpoch and tagConform were added within version 2 as optional
// sections (absent = epoch 0 / empty conformance profile), which older
// version-2 readers skip by the unknown-tag rule.
const (
	tagEnd     = 0
	tagConfig  = 1
	tagLexicon = 2
	tagVocab   = 3
	tagUsers   = 4
	tagCounter = 5
	tagOnline  = 6
	tagFactors = 7
	tagEpoch   = 8
	tagConform = 9
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rngSplitMix64 identifies the solver's random generator in the online
// section. The recorded stream position is only meaningful for the exact
// generator that produced it, so the algorithm is part of the format
// contract: replacing the solver's PRNG requires a new identifier here,
// and decoders reject identifiers they do not implement instead of
// silently continuing a stream with different random values.
const rngSplitMix64 = 1

// Encode writes st as a versioned binary snapshot to w, in one Write.
func Encode(w io.Writer, st *engine.State) error {
	if st == nil {
		return errors.New("codec: nil state")
	}
	// The whole snapshot is built in one buffer: the header's length and
	// every section's size are patched in once the bytes after them exist.
	e := &encoder{buf: make([]byte, headerLen, 4096)}
	copy(e.buf, magic[:])
	binary.LittleEndian.PutUint16(e.buf[8:], Version)
	e.section(tagConfig, func() { e.config(st.Config, st) })
	e.section(tagLexicon, func() { e.stringIntMap(st.Lexicon) })
	e.section(tagVocab, func() {
		e.bool(st.Frozen)
		e.stringSlice(st.VocabWords)
		e.dict(st.Sf0)
		e.stringIntMap(st.VocabCounts)
		e.uint(uint64(st.VocabDocs))
	})
	e.section(tagUsers, func() {
		e.uint(uint64(len(st.Users)))
		for _, u := range st.Users {
			e.string(u.Name)
			e.int(int64(u.Label))
		}
	})
	e.section(tagCounter, func() {
		e.uint(uint64(st.Batches))
		e.uint(uint64(st.Skips))
	})
	// The factors go first: the online section's newest feature snapshot
	// may be written as derived from their Sf.
	if st.LastFactors != nil {
		e.section(tagFactors, func() { e.factors(st.LastFactors) })
	}
	e.section(tagOnline, func() { e.online(st.Online, factorsSf(st)) })
	// The ownership epoch is written only when set, so snapshots of
	// never-moved topics are the same bytes in and out of a cluster.
	// Determinism holds either way: equal states make equal
	// include-or-omit decisions.
	if st.Epoch != 0 {
		e.section(tagEpoch, func() { e.uint(st.Epoch) })
	}
	// Same rule for the conformance profile: an empty default profile is
	// omitted. The profile owns its wire format (versioned separately
	// inside the section body, see internal/conform/wire.go).
	if st.Conform != nil && !st.Conform.IsZero() {
		e.section(tagConform, func() { e.buf = st.Conform.AppendBinary(e.buf) })
	}
	e.byte(tagEnd)

	payload := e.buf[headerLen:]
	binary.LittleEndian.PutUint64(e.buf[10:], uint64(len(payload)))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.Checksum(payload, castagnoli))
	_, err := w.Write(e.buf)
	return err
}

// Decode reads one snapshot from r and reconstructs the engine state. The
// payload checksum is verified before any field is parsed.
func Decode(r io.Reader) (*engine.State, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint16(hdr[8:10])
	if version < oldestVersion || version > Version {
		return nil, fmt.Errorf("%w: snapshot is version %d, this build reads %d through %d",
			ErrVersion, version, oldestVersion, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[10:18])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, n)
	}
	var payload bytes.Buffer
	copied, err := io.Copy(&payload, io.LimitReader(r, int64(n)))
	if err != nil || uint64(copied) != n {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, copied, n)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if got := crc32.Checksum(payload.Bytes(), castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (payload %08x, trailer %08x)", ErrCorrupt, got, want)
	}

	dec := &decoder{buf: payload.Bytes(), fixed: version < versionCompact, forms: version >= versionForms}
	st := &engine.State{}
	seen := map[byte]bool{}
	for {
		tag := dec.byte()
		if dec.err != nil {
			return nil, dec.err
		}
		if tag == tagEnd {
			break
		}
		body := dec.bytes(dec.u64())
		if dec.err != nil {
			return nil, dec.err
		}
		if seen[tag] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, tag)
		}
		seen[tag] = true
		sd := &decoder{buf: body, fixed: dec.fixed, forms: dec.forms}
		switch tag {
		case tagConfig:
			sd.config(&st.Config, st)
		case tagLexicon:
			st.Lexicon = sd.stringIntMap()
		case tagVocab:
			st.Frozen = sd.bool()
			st.VocabWords = sd.stringSlice()
			st.Sf0 = sd.matrix(sd.form(), true)
			st.VocabCounts = sd.stringIntMap()
			st.VocabDocs = int(sd.uint())
		case tagUsers:
			st.Users = sd.users()
		case tagCounter:
			st.Batches = int(sd.uint())
			st.Skips = int(sd.uint())
		case tagOnline:
			st.Online = sd.online(factorsSf(st))
		case tagFactors:
			st.LastFactors = sd.factors()
		case tagEpoch:
			st.Epoch = sd.uint()
		case tagConform:
			p, err := conform.DecodeProfile(sd.buf)
			if err != nil {
				// An unimplemented profile wire version is version skew
				// (intact snapshot, newer writer), not corruption.
				if errors.Is(err, conform.ErrProfileVersion) {
					return nil, fmt.Errorf("%w: %v", ErrVersion, err)
				}
				return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, tag, err)
			}
			st.Conform = p
			sd.buf = nil
		default:
			// Unknown section from a newer minor revision: skip.
			continue
		}
		if sd.err != nil {
			return nil, fmt.Errorf("section %d: %w", tag, sd.err)
		}
		if len(sd.buf) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in section %d", ErrCorrupt, len(sd.buf), tag)
		}
	}
	for _, tag := range []byte{tagConfig, tagLexicon, tagVocab, tagUsers, tagCounter, tagOnline} {
		if !seen[tag] {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, tag)
		}
	}
	return st, nil
}

// factorsSf returns the Sf of the state's factors section, the matrix a
// derived feature snapshot is derived from; nil without the section.
func factorsSf(st *engine.State) *mat.Dense {
	if st.LastFactors == nil {
		return nil
	}
	return st.LastFactors.Sf
}

// ——— encoder ———

// encoder appends the compact primitives to one buffer. An append cannot
// fail, so there is no error to thread.
type encoder struct {
	buf []byte
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// int writes a zigzag varint, so NoLabel (-1) stays one byte.
func (e *encoder) int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) float(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) string(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) stringSlice(ss []string) {
	e.uint(uint64(len(ss)))
	for _, s := range ss {
		e.string(s)
	}
}

func (e *encoder) floats(fs []float64) {
	e.uint(uint64(len(fs)))
	for _, f := range fs {
		e.float(f)
	}
}

func (e *encoder) ints(vs []int) {
	e.uint(uint64(len(vs)))
	for _, v := range vs {
		e.int(int64(v))
	}
}

// bools writes a bit count and a bitset, least significant bit first.
func (e *encoder) bools(bs []bool) {
	e.uint(uint64(len(bs)))
	at := len(e.buf)
	e.buf = append(e.buf, make([]byte, (len(bs)+7)/8)...)
	for i, b := range bs {
		if b {
			e.buf[at+i/8] |= 1 << (i % 8)
		}
	}
}

// stringIntMap writes entries in sorted key order for determinism.
func (e *encoder) stringIntMap(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uint(uint64(len(keys)))
	for _, k := range keys {
		e.string(k)
		e.int(int64(m[k]))
	}
}

func (e *encoder) dense(m *mat.Dense) {
	if m == nil {
		e.byte(formAbsent)
		return
	}
	e.byte(formDense)
	e.uint(uint64(m.Rows()))
	e.uint(uint64(m.Cols()))
	for _, v := range m.Data() {
		e.float(v)
	}
}

// dict writes m as a row dictionary, or dense when it has more distinct
// rows or more columns than a dictionary holds. Two passes over m and a
// fixed table: nothing is allocated per row.
func (e *encoder) dict(m *mat.Dense) {
	if m == nil || m.Cols() > dictMaxCols {
		e.dense(m)
		return
	}
	var first [dictMaxRows]int // the row of m each dictionary entry was first seen at
	d := 0
	for i := 0; i < m.Rows(); i++ {
		if dictIndex(m, first[:d], m.Row(i)) < d {
			continue
		}
		if d == dictMaxRows {
			e.dense(m)
			return
		}
		first[d] = i
		d++
	}
	e.byte(formDict)
	e.uint(uint64(m.Rows()))
	e.uint(uint64(m.Cols()))
	e.uint(uint64(d))
	for _, i := range first[:d] {
		for _, v := range m.Row(i) {
			e.float(v)
		}
	}
	for i := 0; i < m.Rows(); i++ {
		e.uint(uint64(dictIndex(m, first[:d], m.Row(i))))
	}
}

// dictIndex returns the position in first of the row of m that equals row,
// or len(first) when none does.
func dictIndex(m *mat.Dense, first []int, row []float64) int {
	for at, i := range first {
		if sameBits(m.Row(i), row) {
			return at
		}
	}
	return len(first)
}

// sameBits reports whether two rows of one length are equal bit for bit.
// Bits, not ==: a dictionary must give −0 and every NaN payload back as
// they were.
func sameBits(a, b []float64) bool {
	for j, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// rowScale and scaled are the arithmetic of the derived form, which the
// package comment makes part of the format: a change here is a change of
// what existing snapshots mean. A row whose entries sum to zero derives to
// the uniform row (uniform set, scale 1/k); any other to its entries times
// scale, the reciprocal of the sum.
func rowScale(row []float64) (scale float64, uniform bool) {
	var s float64
	for _, v := range row {
		s += v
	}
	if s == 0 {
		return 1 / float64(len(row)), true
	}
	return 1 / s, false
}

func scaled(v, scale float64, uniform bool) float64 {
	if uniform {
		return scale
	}
	return v * scale
}

// derives reports whether m is, bit for bit, what the derived form would
// rebuild from src. A derived NaN never matches: its payload is whatever
// the hardware propagates, and a snapshot must decode alike everywhere.
func derives(src, m *mat.Dense) bool {
	if src == nil || m == nil || !m.Dims(src.Rows(), src.Cols()) {
		return false
	}
	for i := 0; i < src.Rows(); i++ {
		from, to := src.Row(i), m.Row(i)
		scale, uniform := rowScale(from)
		for j, v := range from {
			v = scaled(v, scale, uniform)
			if v != v || math.Float64bits(v) != math.Float64bits(to[j]) {
				return false
			}
		}
	}
	return true
}

// section writes a tagged body; the size field in front of it is patched
// once the body has been appended.
func (e *encoder) section(tag byte, body func()) {
	e.byte(tag)
	e.u64(0)
	at := len(e.buf)
	body()
	binary.LittleEndian.PutUint64(e.buf[at-8:], uint64(len(e.buf)-at))
}

func (e *encoder) config(c core.OnlineConfig, st *engine.State) {
	e.uint(uint64(c.K))
	e.float(c.Alpha)
	e.float(c.Beta)
	e.uint(uint64(c.MaxIter))
	e.float(c.Tol)
	e.int(c.Seed)
	e.bool(c.LexiconInit)
	e.float(c.SparsityLambda)
	e.float(c.DiversityLambda)
	e.float(c.GuidedLambda)
	e.ints(c.GuidedTweetLabels)
	e.ints(c.GuidedUserLabels)
	e.float(c.Gamma)
	e.float(c.Tau)
	e.uint(uint64(c.Window))
	e.uint(uint64(st.Weighting))
	e.uint(uint64(st.MinDF))
	e.float(st.LexiconHit)
	tok := st.Tokenizer
	e.bool(tok.KeepHashtags)
	e.bool(tok.KeepMentions)
	e.bool(tok.RemoveStopwords)
	e.uint(uint64(tok.MinTokenLen))
	e.bool(tok.Stem)
}

// online writes the solver's state. lastSf is the Sf of the factors
// section already written (nil without one): the newest feature snapshot
// is elided when it is that matrix's derivation.
func (e *encoder) online(o *core.OnlineState, lastSf *mat.Dense) {
	if o == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.byte(rngSplitMix64)
	e.uint(o.RandDraws)
	e.dense(o.LastHp)
	e.dense(o.LastHu)
	e.uint(uint64(len(o.SfHist)))
	for i, s := range o.SfHist {
		e.int(int64(s.Time))
		if i == len(o.SfHist)-1 && derives(lastSf, s.Sf) && len(s.Seen) == s.Sf.Rows() {
			e.byte(formDerived)
		} else {
			e.dense(s.Sf)
		}
		e.bools(s.Seen)
	}
	// The flat history is sorted by id: a user's rows are one run of it.
	ids := o.UserIDs
	users := 0
	for i, g := range ids {
		if i == 0 || g != ids[i-1] {
			users++
		}
	}
	e.uint(uint64(users))
	for i := 0; i < len(ids); {
		end := i + 1
		for end < len(ids) && ids[end] == ids[i] {
			end++
		}
		e.int(int64(ids[i]))
		e.uint(uint64(end - i))
		for ; i < end; i++ {
			e.int(int64(o.UserTimes[i]))
			e.floats(o.UserRows.Row(i))
		}
	}
}

// factors writes what a restored topic reads of the last solve: Sf (read
// view, fold-in) and the cores. Sp and Su are per-batch and not stored.
func (e *encoder) factors(f *core.Factors) {
	e.dense(f.Sf)
	e.dense(f.Hp)
	e.dense(f.Hu)
}

// ——— decoder ———

// decoder reads the primitives back. fixed selects the width: false for
// the compact encodings, true for 8-byte integers and byte-per-element
// masks — version-2 snapshots and, through WireDecoder, the journal and
// frame formats. forms is set from version 4 on: a matrix starts with a
// form byte, not a presence bool.
type decoder struct {
	buf   []byte
	fixed bool
	forms bool
	err   error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, msg)
	}
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("length past end of data")
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean")
		return false
	}
}

// u64 reads 8 little-endian bytes at either width: section sizes, floats.
func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// uint reads an unsigned integer. A varint must be minimal (no trailing
// zero group), so every value has one encoding and decode∘encode is the
// identity on accepted input.
func (d *decoder) uint() uint64 {
	if d.fixed {
		return d.u64()
	}
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.fail("truncated, overlong or non-minimal varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) int() int64 {
	u := d.uint()
	if d.fixed {
		return int64(u)
	}
	return int64(u>>1) ^ -int64(u&1) // zigzag
}

func (d *decoder) float() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and checks it against the bytes that
// remain, given the smallest encoding of one element: ints integer fields
// (8 bytes each at fixed width, 1 as a varint) plus raw further bytes.
// The comparison is by division, so a hostile count near 2^64 cannot
// overflow the check and reach a huge allocation.
func (d *decoder) count(ints, raw uint64) uint64 {
	n := d.uint()
	if d.fixed {
		ints *= 8
	}
	if d.err == nil && n > uint64(len(d.buf))/(ints+raw) {
		d.fail("element count past end of data")
		return 0
	}
	return n
}

func (d *decoder) string() string { return string(d.bytes(d.uint())) }

func (d *decoder) stringSlice() []string {
	n := d.count(1, 0)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	return out
}

// floats appends a count-prefixed float slice to dst.
func (d *decoder) floats(dst []float64) []float64 {
	for n := d.count(0, 8); n > 0; n-- {
		dst = append(dst, d.float())
	}
	return dst
}

func (d *decoder) intSlice() []int {
	n := d.count(1, 0)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.int())
	}
	return out
}

func (d *decoder) bools() []bool {
	if d.fixed {
		n := d.count(0, 1)
		if n == 0 {
			return nil
		}
		out := make([]bool, n)
		for i := range out {
			out[i] = d.bool()
		}
		return out
	}
	// The bitset must fit in what remains before n sizes an allocation;
	// n/8 cannot overflow.
	n := d.uint()
	bits := d.bytes(n/8 + (n%8+7)/8)
	if n == 0 || d.err != nil {
		return nil
	}
	if n%8 != 0 && bits[len(bits)-1]>>(n%8) != 0 {
		d.fail("non-zero bitset padding")
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = bits[i/8]>>(i%8)&1 != 0
	}
	return out
}

// stringIntMap decodes a map section; like the slice decoders it returns
// nil for an empty collection (encoders do not distinguish nil from
// empty, so decoders canonicalize to nil).
func (d *decoder) stringIntMap() map[string]int {
	n := d.count(2, 0)
	if n == 0 {
		return nil
	}
	out := make(map[string]int, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.string()
		v := int(d.int())
		out[k] = v
	}
	return out
}

// form reads the byte a matrix starts with.
func (d *decoder) form() byte {
	if !d.forms {
		if d.bool() {
			return formDense
		}
		return formAbsent
	}
	f := d.byte()
	if f > formDerived {
		d.fail("unknown matrix form")
	}
	return f
}

// dense reads a matrix where only the absent and dense forms are legal.
func (d *decoder) dense() *mat.Dense { return d.matrix(d.form(), false) }

// matrix reads the body of a matrix of the given form; dict says whether
// a row dictionary is legal at this position. The derived form has no body
// and is the online section's to handle.
func (d *decoder) matrix(form byte, dict bool) *mat.Dense {
	switch {
	case d.err != nil || form == formAbsent:
		return nil
	case form == formDense:
		return d.denseBody()
	case form == formDict && dict:
		return d.dictBody()
	}
	d.fail("matrix form not legal at this position")
	return nil
}

func (d *decoder) denseBody() *mat.Dense {
	rows, cols := d.uint(), d.uint()
	if d.err != nil {
		return nil
	}
	// Overflow-safe bound: each element takes 8 bytes, so both dimensions
	// and their product must fit in the remaining payload.
	remaining := uint64(len(d.buf)) / 8
	if cols > remaining || rows > maxPayload || (cols != 0 && rows > remaining/cols) {
		d.fail("matrix larger than remaining data")
		return nil
	}
	out := mat.NewDense(int(rows), int(cols))
	data := out.Data()
	for i := range data {
		data[i] = d.float()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// dictBody reads a row dictionary, and holds it to the one spelling Encode
// gives a matrix: distinct dictionary rows, each used, in order of first
// use.
func (d *decoder) dictBody() *mat.Dense {
	rows, cols, n := d.uint(), d.uint(), d.uint()
	if d.err == nil && (cols > dictMaxCols || n > dictMaxRows) {
		d.fail("row dictionary larger than the format allows")
	}
	if d.err != nil {
		return nil
	}
	var table [dictMaxRows * dictMaxCols]float64
	for i := range table[:n*cols] {
		table[i] = d.float()
	}
	if d.err != nil {
		return nil
	}
	entry := func(i uint64) []float64 { return table[i*cols : (i+1)*cols] }
	for i := uint64(1); i < n; i++ {
		for j := uint64(0); j < i; j++ {
			if sameBits(entry(i), entry(j)) {
				d.fail("duplicate dictionary row")
				return nil
			}
		}
	}
	// An index takes at least a byte, so rows is bounded before it sizes
	// the matrix.
	if rows > uint64(len(d.buf)) {
		d.fail("more dictionary indices than remaining data")
		return nil
	}
	out := mat.NewDense(int(rows), int(cols))
	used := uint64(0)
	for i := 0; i < int(rows); i++ {
		at := d.uint()
		if d.err != nil {
			return nil
		}
		if at > used || at >= n {
			d.fail("dictionary index out of range or not in order of first use")
			return nil
		}
		if at == used {
			used++
		}
		copy(out.Row(i), entry(at))
	}
	if used != n {
		d.fail("unused dictionary row")
		return nil
	}
	return out
}

// derived rebuilds the newest feature snapshot from the factors section's
// Sf (nil when no factors section came first).
func (d *decoder) derived(src *mat.Dense) *mat.Dense {
	if src == nil {
		d.fail("derived matrix with no factors Sf in front of it")
		return nil
	}
	out := mat.NewDense(src.Rows(), src.Cols())
	for i := 0; i < src.Rows(); i++ {
		from, to := src.Row(i), out.Row(i)
		scale, uniform := rowScale(from)
		for j, v := range from {
			to[j] = scaled(v, scale, uniform)
		}
	}
	return out
}

func (d *decoder) config(c *core.OnlineConfig, st *engine.State) {
	c.K = int(d.uint())
	c.Alpha = d.float()
	c.Beta = d.float()
	c.MaxIter = int(d.uint())
	c.Tol = d.float()
	c.Seed = d.int()
	c.LexiconInit = d.bool()
	c.SparsityLambda = d.float()
	c.DiversityLambda = d.float()
	c.GuidedLambda = d.float()
	c.GuidedTweetLabels = d.intSlice()
	c.GuidedUserLabels = d.intSlice()
	c.Gamma = d.float()
	c.Tau = d.float()
	c.Window = int(d.uint())
	st.Weighting = text.Weighting(d.uint())
	st.MinDF = int(d.uint())
	st.LexiconHit = d.float()
	st.Tokenizer.KeepHashtags = d.bool()
	st.Tokenizer.KeepMentions = d.bool()
	st.Tokenizer.RemoveStopwords = d.bool()
	st.Tokenizer.MinTokenLen = int(d.uint())
	st.Tokenizer.Stem = d.bool()
}

func (d *decoder) users() []tgraph.User {
	n := d.count(2, 0)
	if n == 0 {
		return nil
	}
	out := make([]tgraph.User, n)
	for i := range out {
		out[i].Name = d.string()
		out[i].Label = int(d.int())
	}
	return out
}

// online reads the solver's state; lastSf is the Sf of the factors section
// if one has been read, the source of a derived feature snapshot.
func (d *decoder) online(lastSf *mat.Dense) *core.OnlineState {
	if !d.bool() || d.err != nil {
		return nil
	}
	// An unknown generator id is a version problem, not corruption: the
	// snapshot is intact, this build just cannot replay its stream.
	// ErrVersion keeps it on the same recoverable-skew paths as an
	// unknown format version (quarantine at daemon startup, the
	// unsupported_snapshot_version error code over HTTP).
	if algo := d.byte(); d.err == nil && algo != rngSplitMix64 {
		d.err = fmt.Errorf("%w: snapshot records random generator %d, this build replays generator %d",
			ErrVersion, algo, rngSplitMix64)
		return nil
	}
	o := &core.OnlineState{RandDraws: d.uint()}
	o.LastHp = d.dense()
	o.LastHu = d.dense()
	n := d.count(2, 1) // time, mask count; matrix form
	if n > 0 {
		o.SfHist = make([]core.SfSnapshotState, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		s := core.SfSnapshotState{Time: int(d.int())}
		form := d.form()
		switch {
		case form != formDerived:
			s.Sf = d.matrix(form, false)
		case i != n-1:
			d.fail("derived matrix in an older feature snapshot")
		default:
			s.Sf = d.derived(lastSf)
		}
		s.Seen = d.bools()
		if form == formDerived && d.err == nil && len(s.Seen) != s.Sf.Rows() {
			d.fail("derived matrix of another shape than its mask")
		}
		o.SfHist = append(o.SfHist, s)
	}
	m := d.count(2, 0)
	if m == 0 || d.err != nil {
		return o
	}
	// Every user has at least one row in what Encode writes, so m is the
	// likely row count; the floats that follow cannot outnumber the bytes
	// that hold them.
	o.UserIDs = make([]int, 0, m)
	o.UserTimes = make([]int, 0, m)
	rows := make([]float64, 0, len(d.buf)/8)
	width := -1
	for i := uint64(0); i < m && d.err == nil; i++ {
		g := int(d.int())
		for cnt := d.count(2, 0); cnt > 0 && d.err == nil; cnt-- {
			o.UserIDs = append(o.UserIDs, g)
			o.UserTimes = append(o.UserTimes, int(d.int()))
			at := len(rows)
			rows = d.floats(rows)
			if width < 0 {
				width = len(rows) - at
			}
			if len(rows)-at != width {
				d.fail("user history rows of unequal length")
			}
		}
	}
	if d.err == nil && len(o.UserIDs) > 0 {
		o.UserRows = mat.NewDenseData(len(o.UserIDs), width, rows)
	}
	return o
}

func (d *decoder) factors() *core.Factors {
	if d.fixed {
		d.dense() // version 2 stored Sp and Su in front; nothing reads them
		d.dense()
	}
	f := &core.Factors{}
	f.Sf = d.dense()
	f.Hp = d.dense()
	f.Hu = d.dense()
	return f
}
