// Package codec serializes the full state of a topic — vocabulary, Sf0
// prior, solver factors and history, user universe, timestamps and
// configuration (an engine.State) — into a self-describing, versioned
// binary snapshot, and restores it. The same primitives, one integer
// dialect, write and read the commit path's frames: journal record
// payloads, the binary batch frames and the replication frames (wire.go,
// batch.go, repl.go). The decoder has that one dialect: no frame of an
// older, fixed-width layout is read.
//
// # Format
//
// A snapshot is:
//
//	magic    [8]byte  "TRICSNAP"
//	version  uint16   format version (currently 5)
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
//	count, length, index, counter, age   uvarint (minimal encoding only)
//	timestamp, label, seed               zigzag varint
//	float                                IEEE-754 bits, 8 bytes little-endian
//	bool                                 one byte, 0 or 1
//	[]bool                               uvarint bit count + bitset, LSB
//	                                     first, padding bits zero
//	id set                               a []bool whose last bit is set (or
//	                                     that is empty): bit i says whether
//	                                     id i is a member, so its count is
//	                                     the largest member plus one
//	string                               length + bytes
//	name list                            count, then the strings
//	word list                            count, then the words front-coded
//	map                                  its keys as a word list, then one
//	                                     zigzag value per key
//	matrix                               form byte, then the form's body
//
// # What a snapshot does not hold
//
// A snapshot carries nothing dead, nothing twice, and writes a position
// as a position. The four rules below, with their fallbacks, are part of
// the format: each is a function of the state alone, so equal states have
// one encoding, and Decode holds a payload to it.
//
//  1. Nothing dead. The lexicon section (the word→class map that seeds
//     Sf0 at the vocabulary freeze) is written only when the map is not
//     empty, and a section that holds no entry is corrupt. A frozen topic
//     exports none (engine.State.Lexicon): Sf0 is in the snapshot and
//     nothing reads the lexicon after the freeze. An unfrozen topic still
//     needs it, and carries it.
//  2. Nothing twice. See the matrix forms: a matrix the rest of the
//     snapshot determines is not stored, and is stored on any doubt.
//  3. A position is a position. Which users are labelled, and which hold
//     history rows, is an id set; when a row was recorded is its age
//     against the last step. See the users and the user history below.
//  4. Sorted word lists are front-coded. See word lists below.
//
// # Word lists
//
// The vocabulary and the keys of a map are word lists: per word, the
// length of the prefix it shares with the word before it (0 for the first)
// and the rest of it as a string. The shared length is the whole common
// prefix, up to maxShared bytes: a shorter one, or one longer than the
// word before, is corrupt. The cap keeps the shared length one byte and
// bounds what a forged list can make the decoder allocate per byte of
// input. A list is always front-coded, sorted or not: the vocabulary
// VocabBuilder.Build freezes is sorted, and an externally frozen unsorted
// one pays its byte a word for nothing. The keys of a map are written in
// increasing order, and a key list that is not strictly increasing is
// corrupt: a map has one encoding and no key twice.
//
// # Users
//
// The users section is the name list of the universe in universe order
// (names are not sorted, so not front-coded), the id set of the users that
// carry a label, and the labels of those users in id order. A user outside
// the set has tgraph.NoLabel, which is therefore not a label the list may
// hold; a universe without labels costs the set's one count byte.
//
// # User history
//
// The online section ends with the rows of user history the solver
// retains (core.OnlineState.UserIDs, UserTimes, UserRows):
//
//	rows     uvarint     number of rows; 0 ends the section
//	k        uvarint     floats per row
//	ids      id set      the users that hold rows
//	counts   uvarint…    rows per user in id order, each at least 1 and
//	                     rows in sum: present only when rows exceeds the
//	                     set's population (never at the default window,
//	                     where a user holds one row)
//	ages     uvarint…    per row, the newest feature snapshot's time minus
//	                     the row's: the row was recorded that long before
//	                     the last step
//	block    rows×k      the rows' floats, in row order
//
// So a history has ids that are non-negative and sorted, and no row later
// than the last step, by construction. A state whose history is otherwise
// (no solver exports or accepts one) has no encoding: Encode refuses it.
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
//	3 derived   no body: the matrix is a function of the factors section,
//	            which is written in front of the online section for this.
//	            Legal in the online section only, in two places. For the
//	            newest feature snapshot, and only after a factors section
//	            whose Sf has one row per bit of the snapshot's mask: the
//	            matrix is that Sf with every row L1-normalized, which is
//	            what the solver records after a step. For a warm-start
//	            core (LastHp, LastHu), and only after a
//	            factors section that holds that core (Hp, Hu): the matrix
//	            is that core, which is what the solver keeps after a step.
//
// The derivation of a feature snapshot is part of the format. For each
// row r of the factors section's Sf, with k columns: s is +0 plus r[0],
// r[1], …, r[k−1] added in that order; if s == 0 every entry of the
// derived row is 1/k; otherwise every entry is r[j] × (1/s) — the
// reciprocal taken once, then one multiplication per entry — all in
// IEEE-754 binary64, round to nearest even, nothing fused. Encode elides a
// matrix only after checking: it computes the derivation and compares
// bits, and writes the matrix dense on any difference (no factors section,
// a last solve that is not the snapshot's source, a derived NaN, whose
// payload is the hardware's choice), so every state round-trips bit for
// bit. Decode holds a payload to the same choice, so a matrix has
// one encoding: a core or a newest feature snapshot stored dense although
// the factors section determines its bits, an Sf0 stored dense within a
// dictionary's limits, and a factors section behind the online section
// (where nothing could be derived from it) are corrupt.
//
// The solver exports its history in a canonical form (core.OnlineState),
// so encoding is deterministic: equal states produce byte-identical
// snapshots, and so do equal streams — two topics that processed the same
// batches, whatever snapshots and restores lay in between. Floats are
// never re-quantized, so a restore is bit-identical.
//
// # Configuration
//
// The config section is a fixed run of slots: k, α, β, the sweep limit,
// the tolerance, the seed, the lexicon-init flag (slots 1–7), then γ, τ, the
// window, and the pipeline's weighting, MinDF, lexicon hit mass and
// tokenizer flags (from slot 13). Config slots 8–12 are reserved: three
// floats that are zero and two lists that are empty.
// Earlier builds kept the weights and label lists of three extension
// regularizers there (core.Config's SparsityLambda and its four
// neighbours, since removed), which nothing ever set. Anything else in a
// reserved slot is version skew, not corruption: Decode answers ErrVersion.
//
// # Conformance profile
//
// The conformance section holds the topic's conform.ProfileState and is
// written only when that state is not the fresh default (so a fresh
// topic's snapshot has none). Its body is fixed-width and carries a
// version of its own, apart from the snapshot's:
//
//	version      uint8    profile version (currently 1)
//	minSamples   uint64   params
//	flagZ        float
//	quarantineZ  float
//	observed     uint64   counters
//	scored       uint64
//	flagged      uint64
//	quarantined  uint64
//	drift        float
//	prevDrift    float
//	metricCount  uint8    the build's invariant count
//	metrics      metricCount × { n uint64, mean, m2, min, max float }
//
// A uint64 here is 8 bytes little-endian, not a varint. A profile version
// other than 1 is version skew (ErrVersion); a metric count other than the
// build's, a body of any other length, or a state that
// conform.ProfileState.Validate refuses is corrupt.
//
// # Versions
//
// Encode writes version 5 and Decode reads version 5 only: a snapshot of
// any other version answers ErrVersion, an intact file this build does not
// run.
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
	"math/bits"
	"sort"
	"strings"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// Version is the snapshot format version Encode writes and the only one
// Decode reads.
const Version = 5

// profileVersion is the layout of the conformance section's body (see the
// package comment), versioned apart from the snapshot.
const profileVersion = 1

// Matrix forms (see the package comment).
const (
	formAbsent  = 0
	formDense   = 1
	formDict    = 2
	formDerived = 3
)

// maxShared is the longest prefix a front-coded word borrows from the word
// before it. The limit is the format's: the shared length stays one byte,
// and a forged list cannot make the decoder allocate more than maxShared
// bytes for the two it costs to name a word.
const maxShared = 31

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

// Section tags of the snapshot format. tagEpoch and tagConform are
// optional sections (absent = epoch 0 / empty conformance profile).
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

// Encode writes st as a versioned binary snapshot to w, in one Write. A
// state whose user history the format has no encoding for (see the package
// comment) is refused.
func Encode(w io.Writer, st *engine.State) error {
	if st == nil {
		return errors.New("codec: nil state")
	}
	if err := encodable(st.Online); err != nil {
		return err
	}
	// The whole snapshot is built in one buffer: the header's length and
	// every section's size are patched in once the bytes after them exist.
	e := &encoder{buf: make([]byte, headerLen, 4096)}
	copy(e.buf, magic[:])
	binary.LittleEndian.PutUint16(e.buf[8:], Version)
	e.section(tagConfig, func() { e.config(st.Config, st) })
	// A frozen topic exports no lexicon; like the epoch below, an empty
	// one is no section.
	if len(st.Lexicon) > 0 {
		e.section(tagLexicon, func() { e.stringIntMap(st.Lexicon) })
	}
	e.section(tagVocab, func() {
		e.bool(st.Frozen)
		e.wordList(st.VocabWords)
		e.dict(st.Sf0)
		e.stringIntMap(st.VocabCounts)
		e.uint(uint64(st.VocabDocs))
	})
	e.section(tagUsers, func() { e.users(st.Users) })
	e.section(tagCounter, func() {
		e.uint(uint64(st.Batches))
		e.uint(uint64(st.Skips))
	})
	// The factors go first: the online section's cores and newest feature
	// snapshot may be written as derived from them.
	if st.LastFactors != nil {
		e.section(tagFactors, func() { e.factors(st.LastFactors) })
	}
	e.section(tagOnline, func() { e.online(st.Online, st.LastFactors) })
	// The ownership epoch is written only when set, so snapshots of
	// never-moved topics are the same bytes in and out of a cluster.
	// Determinism holds either way: equal states make equal
	// include-or-omit decisions.
	if st.Epoch != 0 {
		e.section(tagEpoch, func() { e.uint(st.Epoch) })
	}
	// Same rule for the conformance profile: a fresh default one is
	// omitted.
	if st.Conform != nil && !st.Conform.IsZero() {
		e.section(tagConform, func() { e.profile(st.Conform) })
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
	if version != Version {
		return nil, fmt.Errorf("%w: snapshot is version %d, this build reads version %d only",
			ErrVersion, version, Version)
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

	dec := &decoder{buf: payload.Bytes()}
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
		sd := &decoder{buf: body}
		switch tag {
		case tagConfig:
			sd.config(&st.Config, st)
		case tagLexicon:
			if st.Lexicon = sd.stringIntMap(); st.Lexicon == nil {
				sd.fail("empty lexicon section")
			}
		case tagVocab:
			st.Frozen = sd.bool()
			st.VocabWords = sd.stringList(true, false)
			st.Sf0 = sd.matrix(sd.form(), true)
			st.VocabCounts = sd.stringIntMap()
			st.VocabDocs = int(sd.uint())
		case tagUsers:
			st.Users = sd.users()
		case tagCounter:
			st.Batches = int(sd.uint())
			st.Skips = int(sd.uint())
		case tagOnline:
			st.Online = sd.online(st.LastFactors)
		case tagFactors:
			// What the online section may derive from this one it must: the
			// order Encode writes is the only one.
			if seen[tagOnline] {
				sd.fail("factors section behind the online section")
			}
			st.LastFactors = sd.factors()
		case tagEpoch:
			st.Epoch = sd.uint()
		case tagConform:
			st.Conform = sd.profile()
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
	// An empty lexicon is no section, so it is the one that may be missing.
	for _, tag := range []byte{tagConfig, tagVocab, tagUsers, tagCounter, tagOnline} {
		if !seen[tag] {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, tag)
		}
	}
	return st, nil
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

// wordList front-codes words: each as the length of the prefix it shares
// with the one before it (the whole common prefix, up to maxShared) and
// the rest.
func (e *encoder) wordList(words []string) {
	e.uint(uint64(len(words)))
	prev := ""
	for _, w := range words {
		n := sharedPrefix(prev, w)
		e.uint(uint64(n))
		e.string(w[n:])
		prev = w
	}
}

// sharedPrefix returns the length of the common prefix of a and b, at most
// maxShared.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b), maxShared)
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// bits writes the bit count n and n zero bits, and returns the bytes that
// hold them, least significant bit first, for the caller to set.
func (e *encoder) bits(n int) []byte {
	e.uint(uint64(n))
	at := len(e.buf)
	e.buf = append(e.buf, make([]byte, (n+7)/8)...)
	return e.buf[at:]
}

func (e *encoder) bools(bs []bool) {
	set := e.bits(len(bs))
	for i, b := range bs {
		if b {
			set[i/8] |= 1 << (i % 8)
		}
	}
}

// idset writes an id set — a bitset that ends in its largest member — and
// returns its population. id(i) is the id entry i of n contributes, or a
// negative number for none; ids do not decrease with i, and a repeated one
// counts once.
func (e *encoder) idset(n int, id func(i int) int) (members int) {
	end := 0 // the largest member, plus one
	for i := n - 1; i >= 0 && end == 0; i-- {
		end = max(id(i)+1, 0)
	}
	set := e.bits(end)
	prev := -1
	for i := 0; i < n; i++ {
		if g := id(i); g > prev {
			set[g/8] |= 1 << (g % 8)
			members++
			prev = g
		}
	}
	return members
}

// stringIntMap writes the keys in increasing order, front-coded, then
// their values.
func (e *encoder) stringIntMap(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.wordList(keys)
	for _, k := range keys {
		e.int(int64(m[k]))
	}
}

// users writes the universe: the names, the set of the users that carry a
// label, and those labels.
func (e *encoder) users(users []tgraph.User) {
	e.uint(uint64(len(users)))
	for _, u := range users {
		e.string(u.Name)
	}
	e.idset(len(users), func(i int) int {
		if users[i].Label == tgraph.NoLabel {
			return -1
		}
		return i
	})
	for _, u := range users {
		if u.Label != tgraph.NoLabel {
			e.int(int64(u.Label))
		}
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
	first, d, ok := dictRows(m)
	if !ok {
		e.dense(m)
		return
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

// dictRows finds the dictionary of m: the rows of m at which its d distinct
// rows are first seen, in that order. ok is false when m is nil or has more
// distinct rows or more columns than a dictionary holds.
func dictRows(m *mat.Dense) (first [dictMaxRows]int, d int, ok bool) {
	if m == nil || m.Cols() > dictMaxCols {
		return first, 0, false
	}
	for i := 0; i < m.Rows(); i++ {
		if dictIndex(m, first[:d], m.Row(i)) < d {
			continue
		}
		if d == dictMaxRows {
			return first, 0, false
		}
		first[d] = i
		d++
	}
	return first, d, true
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
	// Slots 8–12, reserved (see the package comment): three zero floats and
	// two empty lists.
	e.float(0)
	e.float(0)
	e.float(0)
	e.uint(0)
	e.uint(0)
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

// online writes the solver's state. last is the factors section already
// written (nil without one): the cores and the newest feature snapshot are
// elided when they are what it determines.
func (e *encoder) online(o *core.OnlineState, last *core.Factors) {
	if o == nil {
		e.bool(false)
		return
	}
	if last == nil {
		last = &core.Factors{}
	}
	e.bool(true)
	e.byte(rngSplitMix64)
	e.uint(o.RandDraws)
	e.core(o.LastHp, last.Hp)
	e.core(o.LastHu, last.Hu)
	e.uint(uint64(len(o.SfHist)))
	for i, s := range o.SfHist {
		e.int(int64(s.Time))
		if i == len(o.SfHist)-1 && derives(last.Sf, s.Sf) && len(s.Seen) == s.Sf.Rows() {
			e.byte(formDerived)
		} else {
			e.dense(s.Sf)
		}
		e.bools(s.Seen)
	}
	e.history(o)
}

// core writes a warm-start core: as derived when it is, bit for bit, the
// factors section's core of the same name, dense otherwise.
func (e *encoder) core(m, of *mat.Dense) {
	if sameMatrix(m, of) {
		e.byte(formDerived)
	} else {
		e.dense(m)
	}
}

// sameMatrix reports whether a and b are both present, of one shape and
// equal bit for bit.
func sameMatrix(a, b *mat.Dense) bool {
	return a != nil && b != nil && a.Dims(b.Rows(), b.Cols()) && sameBits(a.Data(), b.Data())
}

// encodable reports whether the user history of o has an encoding: parallel
// slices over k-wide rows, ids non-negative and sorted (a user's rows are
// one run of the flat history), and no row later than the newest feature
// snapshot. core.NewOnlineFromState accepts no other history either.
func encodable(o *core.OnlineState) error {
	if o == nil || len(o.UserIDs) == 0 && len(o.UserTimes) == 0 {
		return nil
	}
	n := len(o.UserIDs)
	if len(o.UserTimes) != n || o.UserRows == nil || o.UserRows.Rows() != n {
		return errors.New("codec: user history ids, times and rows are not parallel")
	}
	if len(o.SfHist) == 0 {
		return errors.New("codec: user history without a feature snapshot to date it against")
	}
	last := o.SfHist[len(o.SfHist)-1].Time
	for i, g := range o.UserIDs {
		if g < 0 || g >= maxPayload || (i > 0 && g < o.UserIDs[i-1]) {
			return fmt.Errorf("codec: user history id %d at entry %d is negative, past the format's limit or out of order", g, i)
		}
		if o.UserTimes[i] > last {
			return fmt.Errorf("codec: user %d has a history row at time %d, after the last step at %d", g, o.UserTimes[i], last)
		}
	}
	return nil
}

// history writes the retained user rows (see the package comment). The
// flat history is sorted by id: a user's rows are one run of it.
func (e *encoder) history(o *core.OnlineState) {
	ids := o.UserIDs
	e.uint(uint64(len(ids)))
	if len(ids) == 0 {
		return
	}
	e.uint(uint64(o.UserRows.Cols()))
	if users := e.idset(len(ids), func(i int) int { return ids[i] }); users < len(ids) {
		for i := 0; i < len(ids); {
			end := i + 1
			for end < len(ids) && ids[end] == ids[i] {
				end++
			}
			e.uint(uint64(end - i))
			i = end
		}
	}
	last := o.SfHist[len(o.SfHist)-1].Time
	for _, t := range o.UserTimes {
		e.uint(uint64(last) - uint64(t)) // exact for any two ints, t <= last
	}
	for _, v := range o.UserRows.Data() {
		e.float(v)
	}
}

// factors writes what a restored topic reads of the last solve: Sf (read
// view, fold-in) and the cores. Sp and Su are per-batch and not stored.
func (e *encoder) factors(f *core.Factors) {
	e.dense(f.Sf)
	e.dense(f.Hp)
	e.dense(f.Hu)
}

// profile writes the conformance section (see the package comment).
func (e *encoder) profile(p *conform.ProfileState) {
	e.byte(profileVersion)
	e.u64(uint64(p.Params.MinSamples))
	e.float(p.Params.FlagZ)
	e.float(p.Params.QuarantineZ)
	e.u64(p.Observed)
	e.u64(p.Scored)
	e.u64(p.Flagged)
	e.u64(p.Quarantined)
	e.float(p.Drift)
	e.float(p.PrevDrift)
	e.byte(byte(len(p.Metrics)))
	for _, m := range p.Metrics {
		e.u64(m.N)
		e.float(m.Mean)
		e.float(m.M2)
		e.float(m.Min)
		e.float(m.Max)
	}
}

// ——— decoder ———

// decoder reads the primitives back: a snapshot, and every frame of the
// commit path (wire.go).
type decoder struct {
	buf []byte
	err error
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

// u64 reads 8 little-endian bytes: section sizes, floats.
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
	return int64(u>>1) ^ -int64(u&1) // zigzag
}

func (d *decoder) float() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and checks it against the bytes that
// remain, given the smallest encoding of one element: ints integer fields
// (a varint byte each) plus raw further bytes. The comparison is by
// division, so a hostile count near 2^64 cannot overflow the check and
// reach a huge allocation.
func (d *decoder) count(ints, raw uint64) uint64 {
	n := d.uint()
	if d.err == nil && n > uint64(len(d.buf))/(ints+raw) {
		d.fail("element count past end of data")
		return 0
	}
	return n
}

func (d *decoder) string() string { return string(d.bytes(d.uint())) }

// stringList reads a list of strings into one backing string, so a list
// costs two allocations however long it is. front says the list is a word
// list (front-coded); increasing that it is a map's key list, which holds
// no key twice and has one order.
func (d *decoder) stringList(front, increasing bool) []string {
	entry := uint64(1) // a length
	if front {
		entry = 2 // and a shared length
	}
	return d.list(d.count(entry, 0), front, increasing)
}

// list reads the n strings of a list whose count has been read and
// checked, as stringList does; an empty list is nil.
func (d *decoder) list(n uint64, front, increasing bool) []string {
	if n == 0 || d.err != nil {
		return nil
	}
	// A first pass over a copy of the cursor checks every length and sizes
	// the backing string: a shared length is bounded, so the total is at
	// most maxShared+1 times the bytes that remain.
	scan := *d
	var total, prevLen uint64
	for i := uint64(0); i < n; i++ {
		var shared uint64
		if front {
			if shared = scan.uint(); shared > prevLen || shared > maxShared {
				scan.fail("word shares a longer prefix than the word before it has, or than the format allows")
			}
		}
		length := scan.uint()
		scan.bytes(length)
		if scan.err != nil {
			d.err = scan.err
			return nil
		}
		prevLen = shared + length
		total += prevLen
	}
	var back strings.Builder
	back.Grow(int(total)) // no write below reallocates: the strings cut from it stay one allocation
	out := make([]string, n)
	prev := ""
	for i := range out {
		at, shared := back.Len(), 0
		if front {
			shared = int(d.uint())
			back.WriteString(prev[:shared])
		}
		back.Write(d.bytes(d.uint()))
		w := back.String()[at:]
		if front && shared < maxShared && shared < len(prev) && shared < len(w) && w[shared] == prev[shared] {
			d.fail("word shares a longer prefix with the word before it than it says")
			return nil
		}
		if increasing && i > 0 && prev >= w {
			d.fail("map keys not strictly increasing")
			return nil
		}
		out[i], prev = w, w
	}
	return out
}

func (d *decoder) bools() []bool {
	n, set := d.bitset()
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = hasBit(set, uint64(i))
	}
	return out
}

// hasBit reports whether bit i of a bitset is set.
func hasBit(set []byte, i uint64) bool { return set[i/8]>>(i%8)&1 != 0 }

// bitset reads a bit count and that many bits, least significant first,
// the padding bits of the last byte zero. n is 0 after an error.
func (d *decoder) bitset() (n uint64, set []byte) {
	// The bitset must fit in what remains before n sizes an allocation;
	// n/8 cannot overflow.
	n = d.uint()
	set = d.bytes(n/8 + (n%8+7)/8)
	if n == 0 || d.err != nil {
		return 0, nil
	}
	if n%8 != 0 && set[len(set)-1]>>(n%8) != 0 {
		d.fail("non-zero bitset padding")
		return 0, nil
	}
	return n, set
}

// idset reads a set of ids: a bitset that is empty or ends in a set bit, so
// a set has one spelling. members is its population.
func (d *decoder) idset() (n uint64, set []byte, members uint64) {
	n, set = d.bitset()
	if n == 0 {
		return 0, nil, 0
	}
	if !hasBit(set, n-1) {
		d.fail("id set longer than its largest member")
		return 0, nil, 0
	}
	for _, b := range set {
		members += uint64(bits.OnesCount8(b))
	}
	return n, set, members
}

// stringIntMap decodes a map section; like the slice decoders it returns
// nil for an empty collection (encoders do not distinguish nil from
// empty, so decoders canonicalize to nil).
func (d *decoder) stringIntMap() map[string]int {
	keys := d.stringList(true, true)
	if len(keys) == 0 {
		return nil
	}
	out := make(map[string]int, len(keys))
	for _, k := range keys {
		out[k] = int(d.int())
	}
	return out
}

// form reads the byte a matrix starts with.
func (d *decoder) form() byte {
	f := d.byte()
	if f > formDerived {
		d.fail("unknown matrix form")
	}
	return f
}

// dense reads a matrix where only the absent and dense forms are legal.
func (d *decoder) dense() *mat.Dense { return d.matrix(d.form(), false) }

// matrix reads the body of a matrix of the given form; dict says whether
// a row dictionary is legal at this position, where a matrix that fits one
// is corrupt in any other form. The derived form has
// no body and is the online section's to handle.
func (d *decoder) matrix(form byte, dict bool) *mat.Dense {
	switch {
	case d.err != nil || form == formAbsent:
		return nil
	case form == formDense:
		m := d.denseBody()
		if dict {
			if _, _, fits := dictRows(m); fits {
				d.fail("matrix stored dense although a row dictionary holds it")
			}
		}
		return m
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
	// Slots 8–12 are reserved. An older build wrote the weights of three
	// extension regularizers and two label lists there; see the end.
	extension := math.Float64bits(d.float())|math.Float64bits(d.float())|math.Float64bits(d.float()) != 0
	for list := 0; list < 2; list++ {
		n := d.count(1, 0)
		extension = extension || n != 0
		for ; n > 0; n-- {
			d.int()
		}
	}
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
	// A set extension changes the objective, so continuing the stream
	// without it would fork it. In a section that otherwise reads to its
	// last byte that is version skew, like an unknown random generator: the
	// snapshot is intact, this build cannot run it.
	if extension && d.err == nil && len(d.buf) == 0 {
		d.err = fmt.Errorf("%w: snapshot configures an extension regularizer this build does not implement", ErrVersion)
	}
}

func (d *decoder) users() []tgraph.User {
	names := d.stringList(false, false)
	n, set, _ := d.idset()
	if n > uint64(len(names)) {
		d.fail("label for a user past the universe")
		return nil
	}
	if len(names) == 0 {
		return nil
	}
	out := make([]tgraph.User, len(names))
	for i := range out {
		out[i] = tgraph.User{Name: names[i], Label: tgraph.NoLabel}
		if uint64(i) < n && hasBit(set, uint64(i)) {
			if out[i].Label = int(d.int()); out[i].Label == tgraph.NoLabel {
				d.fail("labelled user without a label")
			}
		}
	}
	return out
}

// online reads the solver's state; last is the factors section if one has
// been read, the source of the derived forms.
func (d *decoder) online(last *core.Factors) *core.OnlineState {
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
	if last == nil {
		last = &core.Factors{}
	}
	o := &core.OnlineState{RandDraws: d.uint()}
	o.LastHp = d.core(last.Hp)
	o.LastHu = d.core(last.Hu)
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
			s.Sf = d.derived(last.Sf)
		}
		s.Seen = d.bools()
		if form == formDerived && d.err == nil && len(s.Seen) != s.Sf.Rows() {
			d.fail("derived matrix of another shape than its mask")
		}
		if form == formDense && i == n-1 && derives(last.Sf, s.Sf) && len(s.Seen) == s.Sf.Rows() {
			d.fail("feature snapshot stored although the factors section determines it")
		}
		o.SfHist = append(o.SfHist, s)
	}
	d.history(o)
	return o
}

// core reads a warm-start core; of is the factors section's core of the
// same name, which a derived one is (nil when no factors section came
// first). A core has one encoding: stored dense although it could have been
// derived, it is corrupt.
func (d *decoder) core(of *mat.Dense) *mat.Dense {
	form := d.form()
	if form == formDerived {
		if of == nil {
			d.fail("derived core with no such core in a factors section in front of it")
			return nil
		}
		return of.Clone()
	}
	m := d.matrix(form, false)
	if sameMatrix(m, of) {
		d.fail("core stored although the factors section holds it")
	}
	return m
}

// history reads the retained user rows (see the package comment) into o, whose feature history has been read: ages count back
// from its newest entry.
func (d *decoder) history(o *core.OnlineState) {
	rows := d.uint()
	if rows == 0 || d.err != nil {
		return
	}
	if len(o.SfHist) == 0 {
		d.fail("user history without a feature snapshot to date it against")
		return
	}
	k := d.uint()
	n, set, users := d.idset()
	if d.err != nil {
		return
	}
	// A row is at least its age byte and k floats: rows and k are bounded
	// by the bytes that remain before they size anything, by division.
	if left := uint64(len(d.buf)); k > left/8 || rows > left/(1+8*k) || users > rows {
		d.fail("user history larger than remaining data, or more users than rows")
		return
	}
	o.UserIDs = make([]int, 0, rows)
	for g := uint64(0); g < n && d.err == nil; g++ {
		if !hasBit(set, g) {
			continue
		}
		cnt := uint64(1)
		if rows > users {
			if cnt = d.uint(); cnt == 0 || cnt > rows-uint64(len(o.UserIDs)) {
				d.fail("user history row counts do not add up to its rows")
				return
			}
		}
		for ; cnt > 0; cnt-- {
			o.UserIDs = append(o.UserIDs, int(g))
		}
	}
	if d.err == nil && uint64(len(o.UserIDs)) != rows {
		d.fail("user history row counts do not add up to its rows")
	}
	if d.err != nil {
		return
	}
	// An age reaches back from the last step's time to the smallest
	// timestamp at most.
	last := int64(o.SfHist[len(o.SfHist)-1].Time)
	oldest := uint64(last) + 1<<63 // last − MinInt64, exact modulo 2⁶⁴
	o.UserTimes = make([]int, rows)
	for i := range o.UserTimes {
		age := d.uint()
		if age > oldest {
			d.fail("user history row older than a timestamp can say")
			return
		}
		o.UserTimes[i] = int(last - int64(age))
	}
	o.UserRows = mat.NewDense(int(rows), int(k))
	data := o.UserRows.Data()
	for i := range data {
		data[i] = d.float()
	}
}

// profile reads the conformance section (see the package comment). Like an
// unknown random generator, an unknown profile version is version skew:
// the snapshot is intact, this build cannot run it.
func (d *decoder) profile() *conform.ProfileState {
	if v := d.byte(); d.err == nil && v != profileVersion {
		d.err = fmt.Errorf("%w: conformance profile is version %d, this build reads version %d",
			ErrVersion, v, profileVersion)
		return nil
	}
	p := &conform.ProfileState{}
	p.Params.MinSamples = int(d.u64())
	p.Params.FlagZ = d.float()
	p.Params.QuarantineZ = d.float()
	p.Observed = d.u64()
	p.Scored = d.u64()
	p.Flagged = d.u64()
	p.Quarantined = d.u64()
	p.Drift = d.float()
	p.PrevDrift = d.float()
	if n := d.byte(); d.err == nil && int(n) != len(p.Metrics) {
		d.fail(fmt.Sprintf("conformance profile of %d invariants, this build defines %d", n, len(p.Metrics)))
	}
	for i := range p.Metrics {
		m := &p.Metrics[i]
		m.N = d.u64()
		m.Mean = d.float()
		m.M2 = d.float()
		m.Min = d.float()
		m.Max = d.float()
	}
	if d.err == nil {
		if err := p.Validate(); err != nil {
			d.fail(err.Error())
		}
	}
	return p
}

func (d *decoder) factors() *core.Factors {
	f := &core.Factors{}
	f.Sf = d.dense()
	f.Hp = d.dense()
	f.Hu = d.dense()
	return f
}
