package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"sort"
	"testing"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

func denseOf(rows, cols int, vals ...float64) *mat.Dense {
	m := mat.NewDense(rows, cols)
	copy(m.Data(), vals)
	return m
}

// fullState builds a state exercising every section and nullable field.
func fullState() *engine.State {
	return &engine.State{
		Config: core.OnlineConfig{
			Config: core.Config{
				K: 3, Alpha: 0.05, Beta: 0.8, MaxIter: 40, Tol: -1,
				Seed: 17, LexiconInit: true, SparsityLambda: 0.1,
				GuidedTweetLabels: []int{-1, 0, 2},
			},
			Gamma: 0.2, Tau: 0.9, Window: 2,
		},
		Weighting:  text.TFIDF,
		MinDF:      2,
		LexiconHit: 0.8,
		Tokenizer:  text.TokenizerOptions{KeepHashtags: true, RemoveStopwords: true, MinTokenLen: 2},
		Lexicon:    map[string]int{"good": 0, "bad": 1},
		Frozen:     true,
		VocabWords: []string{"bad", "good", "prop37"},
		Sf0:        denseOf(3, 3, 0.1, 0.1, 0.8, 0.8, 0.1, 0.1, 1.0/3, 1.0/3, 1.0/3),
		Users:      []tgraph.User{{Name: "ann", Label: 0}, {Name: "bo", Label: tgraph.NoLabel}},
		Batches:    4,
		Skips:      1,
		Online: &core.OnlineState{
			RandDraws: 12345,
			LastHp:    denseOf(2, 2, 1, 0, 0, 1),
			LastHu:    denseOf(2, 2, 0.9, 0.1, 0.2, 0.8),
			SfHist: []core.SfSnapshotState{
				{Time: 3, Sf: denseOf(3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9), Seen: []bool{true, false, true}},
				{Time: 4, Sf: denseOf(3, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1), Seen: []bool{false, true, true}},
			},
			// User 0 has one row, user 7 two.
			UserIDs:   []int{0, 7, 7},
			UserTimes: []int{3, 3, 4},
			UserRows:  denseOf(3, 3, 0.5, 0.25, 0.25, 1, 0, 0, 0, 1, 0),
		},
		LastFactors: &core.Factors{
			Sf: denseOf(3, 3, 1, 1, 1, 2, 2, 2, 3, 3, 3),
			Hp: denseOf(3, 3, 1, 0, 0, 0, 1, 0, 0, 0, 1),
			Hu: denseOf(3, 3, 2, 0, 0, 0, 2, 0, 0, 0, 2),
		},
		Epoch: 6,
	}
}

// payloadOf returns a copy of a snapshot's payload (between the 18-byte
// header and the CRC trailer).
func payloadOf(snap []byte) []byte {
	return append([]byte(nil), snap[headerLen:len(snap)-4]...)
}

// reframe wraps a payload in a valid header and checksum, so a forged
// body reaches the section decoders instead of failing the CRC.
func reframe(version uint16, payload []byte) []byte {
	out := append([]byte(nil), magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
}

// findSection returns the offset of a section's body within payload and
// its size. Section framing is a tag byte and an 8-byte size in every
// format version.
func findSection(t *testing.T, payload []byte, tag byte) (body, size int) {
	t.Helper()
	for i := 0; i < len(payload) && payload[i] != tagEnd; {
		size := int(binary.LittleEndian.Uint64(payload[i+1:]))
		if payload[i] == tag {
			return i + 9, size
		}
		i += 9 + size
	}
	t.Fatalf("section %d not found", tag)
	return 0, 0
}

// spliceSection replaces n bytes at offset off of a section's body with
// repl and re-patches the section's size, so only the replaced field is
// wrong about the forged snapshot.
func spliceSection(t *testing.T, payload []byte, tag byte, off, n int, repl []byte) []byte {
	t.Helper()
	body, size := findSection(t, payload, tag)
	out := append([]byte(nil), payload[:body+off]...)
	out = append(out, repl...)
	out = append(out, payload[body+off+n:]...)
	binary.LittleEndian.PutUint64(out[body-8:], uint64(size-n+len(repl)))
	return out
}

func mustEncode(t testing.TB, st *engine.State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	st := fullState()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n got  %+v", st, got)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	// A freshly created, never-processed topic: no freeze, no factors,
	// empty histories.
	st := &engine.State{
		Config:      core.OnlineConfig{Config: core.Config{K: 3, MaxIter: 100, Tol: 1e-4}, Tau: 0.9, Window: 2},
		LexiconHit:  0.8,
		MinDF:       2,
		VocabCounts: map[string]int{"warm": 1},
		VocabDocs:   1,
		Online:      &core.OnlineState{},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n got  %+v", st, got)
	}
}

// TestEpochSectionOptional pins the epoch section's compatibility story:
// epoch 0 (a topic that never changed shards) omits the section entirely,
// so a topic's snapshot is the same bytes in and out of a cluster — the
// golden fixture needs no epoch — while a non-zero epoch rides along and
// round-trips.
func TestEpochSectionOptional(t *testing.T) {
	withEpoch := fullState()
	withEpoch.Epoch = 9
	without := fullState()
	without.Epoch = 0

	var a, b bytes.Buffer
	if err := Encode(&a, withEpoch); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, without); err != nil {
		t.Fatal(err)
	}
	// tag byte + 8-byte size + one-byte varint epoch.
	if want := b.Len() + 10; a.Len() != want {
		t.Fatalf("epoch section size: with=%d without=%d, want with = without+10", a.Len(), b.Len())
	}
	got, err := Decode(&a)
	if err != nil {
		t.Fatalf("Decode with epoch: %v", err)
	}
	if got.Epoch != 9 {
		t.Fatalf("epoch %d, want 9", got.Epoch)
	}
	got, err = Decode(&b)
	if err != nil {
		t.Fatalf("Decode without epoch: %v", err)
	}
	if got.Epoch != 0 {
		t.Fatalf("epoch %d, want 0", got.Epoch)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	var a, b bytes.Buffer
	if err := Encode(&a, fullState()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, fullState()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("encoding of equal states differs")
	}
}

func TestSpecialFloatsSurvive(t *testing.T) {
	st := fullState()
	st.Sf0.Set(0, 0, math.Inf(1))
	st.Sf0.Set(0, 1, math.Copysign(0, -1))
	st.Sf0.Set(0, 2, 1e-308)
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Sf0.At(0, 0), 1) {
		t.Fatal("+Inf not preserved")
	}
	if math.Float64bits(got.Sf0.At(0, 1)) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatal("-0 not preserved bit-exactly")
	}
	if got.Sf0.At(0, 2) != 1e-308 {
		t.Fatal("subnormal-range value not preserved")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, fullState()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	wrongMagic := append([]byte(nil), data...)
	wrongMagic[0] = 'X'
	if _, err := Decode(bytes.NewReader(wrongMagic)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}

	wrongVersion := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(wrongVersion[8:10], Version+1)
	if _, err := Decode(bytes.NewReader(wrongVersion)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, fullState()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit at every offset past the version field; every mutation
	// must be rejected (payload flips fail the CRC, header/trailer flips
	// fail framing or the checksum comparison).
	for pos := 10; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x01
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at offset %d accepted", pos)
		}
	}
	for cut := 0; cut < len(data); cut += 11 {
		if _, err := Decode(bytes.NewReader(data[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: want ErrCorrupt", cut)
		}
	}
}

// TestHostileCountsRejected: a forged snapshot with a *valid* CRC but
// absurd element counts must fail with ErrCorrupt, not panic or allocate
// unboundedly (the length checks are overflow-safe).
func TestHostileCountsRejected(t *testing.T) {
	payload := payloadOf(mustEncode(t, fullState()))
	reject := func(name string, forged []byte) {
		t.Helper()
		if _, err := Decode(bytes.NewReader(reframe(Version, forged))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	// The lexicon section (tag 2) starts with its entry count; the vocab
	// section (tag 3) with the frozen flag, then the word count. Each is a
	// one-byte varint in fullState. Replace it with counts whose naive
	// size products overflow uint64, up to 2^64-1 itself.
	for _, huge := range []uint64{1 << 61, 1<<64 - 2, 1<<64 - 1} {
		count := binary.AppendUvarint(nil, huge)
		reject("lexicon count", spliceSection(t, payload, tagLexicon, 0, 1, count))
		reject("vocab count", spliceSection(t, payload, tagVocab, 1, 1, count))
	}
	// Dense-matrix header with dimensions whose byte size overflows: the
	// factors section starts with Sf → flag byte, rows, cols.
	dim := binary.AppendUvarint(nil, 1<<61)
	reject("matrix dims", spliceSection(t, payload, tagFactors, 1, 2, append(dim, dim...)))
	// User history rows are one flat k-wide matrix: a row of another
	// length has nowhere to go. The online section ends with user 7's
	// second row — a length byte (3) and 24 bytes of floats.
	_, size := findSection(t, payload, tagOnline)
	short := append([]byte{2}, make([]byte, 16)...)
	reject("ragged user rows", spliceSection(t, payload, tagOnline, size-25, 25, short))
	// A mask whose bit count no bitset in the section could back.
	d := &decoder{buf: binary.AppendUvarint(nil, 1<<64-1)}
	if d.bools(); !errors.Is(d.err, ErrCorrupt) {
		t.Fatalf("hostile mask count: got %v, want ErrCorrupt", d.err)
	}
}

// TestNonCanonicalPrimitivesRejected: every value has exactly one
// accepted encoding, so equal states cannot arrive as different bytes. A
// varint that spends more bytes than its value needs — including the
// 10-byte all-continuation spelling of zero — and a bitset with bits set
// past its count are corruption.
func TestNonCanonicalPrimitivesRejected(t *testing.T) {
	payload := payloadOf(mustEncode(t, fullState()))
	body, _ := findSection(t, payload, tagLexicon)
	if payload[body] != 2 {
		t.Fatalf("lexicon count byte is %d, want 2", payload[body])
	}
	// 0x82 0x00 still reads as 2 to a lenient varint reader, and the
	// section size is re-patched, so only minimality can reject it.
	overlong10 := append(bytes.Repeat([]byte{0x80}, 9), 0x00)
	for name, repl := range map[string][]byte{
		"non-minimal count":    {0x82, 0x00},
		"10-byte overlong":     overlong10,
		"11-byte continuation": bytes.Repeat([]byte{0x80}, 11),
		"overflowing 10th":     append(bytes.Repeat([]byte{0xff}, 9), 0x02),
	} {
		forged := reframe(Version, spliceSection(t, payload, tagLexicon, 0, 1, repl))
		if _, err := Decode(bytes.NewReader(forged)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	if d := (&decoder{buf: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}}); d.uint() != 1<<64-1 || d.err != nil {
		t.Fatalf("maximal 10-byte varint rejected: %v", d.err)
	}

	for name, tc := range map[string]struct {
		in   []byte
		want []bool
		bad  bool
	}{
		"exact":          {in: []byte{3, 0b101}, want: []bool{true, false, true}},
		"byte boundary":  {in: []byte{8, 0x80}, want: []bool{false, false, false, false, false, false, false, true}},
		"empty":          {in: []byte{0}},
		"padding bit":    {in: []byte{3, 0b1101}, bad: true},
		"padding high":   {in: []byte{9, 0x00, 0x80}, bad: true},
		"short bitset":   {in: []byte{9, 0x00}, bad: true},
		"truncated mask": {in: []byte{1}, bad: true},
	} {
		d := &decoder{buf: tc.in}
		got := d.bools()
		if tc.bad {
			if !errors.Is(d.err, ErrCorrupt) {
				t.Fatalf("bitset %s: got %v / %v, want ErrCorrupt", name, got, d.err)
			}
		} else if d.err != nil || !reflect.DeepEqual(got, tc.want) || len(d.buf) != 0 {
			t.Fatalf("bitset %s: got %v (err %v, %d left), want %v", name, got, d.err, len(d.buf), tc.want)
		}
	}
}

// TestUnknownSectionSkipped: decoders must skip sections with unknown
// tags, the forward-compatibility half of the self-describing format.
func TestUnknownSectionSkipped(t *testing.T) {
	st := fullState()
	payload := payloadOf(mustEncode(t, st))
	if payload[len(payload)-1] != tagEnd {
		t.Fatal("payload does not end with the end tag")
	}

	// Splice an unknown section (tag 200) in front of the end tag. Section
	// framing is fixed-width: tag, 8-byte size, body.
	extra := binary.LittleEndian.AppendUint64([]byte{200}, 3)
	extra = append(extra, 'x', 'y', 'z', tagEnd)
	forged := reframe(Version, append(payload[:len(payload)-1], extra...))

	got, err := Decode(bytes.NewReader(forged))
	if err != nil {
		t.Fatalf("snapshot with unknown section rejected: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("unknown section altered the decoded state")
	}
}

// TestUnknownRNGAlgorithmRejected: a recorded draw position is only
// replayable on the generator that produced it, so the online section's
// generator identifier must be one this build implements. The failure is
// version skew, not corruption — the intact file must ride the same
// recoverable paths (startup quarantine, stable error code) as an
// unknown format version.
func TestUnknownRNGAlgorithmRejected(t *testing.T) {
	e := &encoder{}
	e.bool(true)
	e.byte(rngSplitMix64 + 1)
	e.uint(5)
	d := &decoder{buf: e.buf}
	if _ = d.online(); d.err == nil {
		t.Fatal("unknown generator accepted")
	}
	if !errors.Is(d.err, ErrVersion) {
		t.Fatalf("error %v, want ErrVersion", d.err)
	}
}

// warmConformProfile builds a profile warmed past its MinSamples gate on
// a steady synthetic stream, so every counter and metric is non-zero.
func warmConformProfile() *conform.Profile {
	p := conform.NewProfile(conform.Params{})
	for i := 0; i < 12; i++ {
		obs := conform.Observation{
			Tweets: 12, Tokens: 36, OOVTokens: 0, OOVValid: true,
			MaxUserTweets: 1, Dups: 0,
			TimeStep: 1, StepValid: i > 0, TimeSpread: 0,
		}
		if v, ok := p.Score(obs); ok {
			p.Observe(obs, &v)
		} else {
			p.Observe(obs, nil)
		}
	}
	return p
}

// TestConformSectionOptional pins the conformance section's
// compatibility story, the same contract as the epoch section: a nil or
// never-observed profile omits the section entirely — snapshots of
// topics that predate the conformance gate (and of fresh topics) stay
// byte-identical to pre-gate builds — while a warmed profile rides along
// and round-trips bit-exactly.
func TestConformSectionOptional(t *testing.T) {
	var nilProf, zeroProf, warm bytes.Buffer
	if err := Encode(&nilProf, fullState()); err != nil {
		t.Fatal(err)
	}
	zp := fullState()
	zp.Conform = conform.NewProfile(conform.Params{})
	if err := Encode(&zeroProf, zp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nilProf.Bytes(), zeroProf.Bytes()) {
		t.Fatal("zero profile must encode identically to no profile")
	}

	ws := fullState()
	ws.Conform = warmConformProfile()
	if err := Encode(&warm, ws); err != nil {
		t.Fatal(err)
	}
	if warm.Len() <= nilProf.Len() {
		t.Fatal("warm profile did not grow the snapshot")
	}
	got, err := Decode(bytes.NewReader(warm.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Conform == nil {
		t.Fatal("decoded state lost the profile")
	}
	if !bytes.Equal(got.Conform.AppendBinary(nil), ws.Conform.AppendBinary(nil)) {
		t.Fatal("profile did not round-trip bit-exactly")
	}
}

// TestConformSectionVersionSkew: a profile written by a future wire
// version inside an otherwise intact snapshot must surface as ErrVersion
// (the recoverable skew path — startup quarantine, stable error code),
// while structural damage to the section is ErrCorrupt.
func TestConformSectionVersionSkew(t *testing.T) {
	st := fullState()
	st.Conform = warmConformProfile()
	// forge rewrites one byte at off within the conform section's body
	// (off 0 is the profile wire version).
	forge := func(off int, val byte) []byte {
		payload := payloadOf(mustEncode(t, st))
		body, _ := findSection(t, payload, tagConform)
		payload[body+off] = val
		return reframe(Version, payload)
	}
	if _, err := Decode(bytes.NewReader(forge(0, 9))); !errors.Is(err, ErrVersion) {
		t.Fatalf("future profile version: got %v, want ErrVersion", err)
	}
	// Byte 73 is the metric count; an invariant-set mismatch is
	// corruption, not skew (the wire version pins the set).
	if _, err := Decode(bytes.NewReader(forge(73, 200))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("metric-count damage: got %v, want ErrCorrupt", err)
	}
}

// encodeV2 writes st in the version-2 layout — every integer 8 fixed
// bytes, masks a byte per element, the last solve's Sp and Su in front of
// the factors section — with the fixed-width wire primitives that format
// was built from. It is the decoder's width switch's test oracle: builds
// before version 3 wrote exactly these bytes.
func encodeV2(st *engine.State, sp, su *mat.Dense) []byte {
	var payload bytes.Buffer
	section := func(tag byte, body func(e *WireEncoder)) {
		var buf bytes.Buffer
		body(NewWireEncoder(&buf))
		payload.WriteByte(tag)
		payload.Write(binary.LittleEndian.AppendUint64(nil, uint64(buf.Len())))
		payload.Write(buf.Bytes())
	}
	ints := func(e *WireEncoder, vs []int) {
		e.Uint(uint64(len(vs)))
		for _, v := range vs {
			e.Int(int64(v))
		}
	}
	stringIntMap := func(e *WireEncoder, m map[string]int) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Uint(uint64(len(keys)))
		for _, k := range keys {
			e.String(k)
			e.Int(int64(m[k]))
		}
	}
	dense := func(e *WireEncoder, m *mat.Dense) {
		e.Bool(m != nil)
		if m == nil {
			return
		}
		e.Uint(uint64(m.Rows()))
		e.Uint(uint64(m.Cols()))
		for _, v := range m.Data() {
			e.Float(v)
		}
	}
	section(tagConfig, func(e *WireEncoder) {
		c, tok := st.Config, st.Tokenizer
		e.Uint(uint64(c.K))
		e.Float(c.Alpha)
		e.Float(c.Beta)
		e.Uint(uint64(c.MaxIter))
		e.Float(c.Tol)
		e.Int(c.Seed)
		e.Bool(c.LexiconInit)
		e.Float(c.SparsityLambda)
		e.Float(c.DiversityLambda)
		e.Float(c.GuidedLambda)
		ints(e, c.GuidedTweetLabels)
		ints(e, c.GuidedUserLabels)
		e.Float(c.Gamma)
		e.Float(c.Tau)
		e.Uint(uint64(c.Window))
		e.Uint(uint64(st.Weighting))
		e.Uint(uint64(st.MinDF))
		e.Float(st.LexiconHit)
		e.Bool(tok.KeepHashtags)
		e.Bool(tok.KeepMentions)
		e.Bool(tok.RemoveStopwords)
		e.Uint(uint64(tok.MinTokenLen))
		e.Bool(tok.Stem)
	})
	section(tagLexicon, func(e *WireEncoder) { stringIntMap(e, st.Lexicon) })
	section(tagVocab, func(e *WireEncoder) {
		e.Bool(st.Frozen)
		e.StringSlice(st.VocabWords)
		dense(e, st.Sf0)
		stringIntMap(e, st.VocabCounts)
		e.Uint(uint64(st.VocabDocs))
	})
	section(tagUsers, func(e *WireEncoder) {
		e.Uint(uint64(len(st.Users)))
		for _, u := range st.Users {
			e.String(u.Name)
			e.Int(int64(u.Label))
		}
	})
	section(tagCounter, func(e *WireEncoder) {
		e.Uint(uint64(st.Batches))
		e.Uint(uint64(st.Skips))
	})
	section(tagOnline, func(e *WireEncoder) {
		o := st.Online
		e.Bool(true)
		e.Bool(true) // generator id rngSplitMix64 = 1, the same byte
		e.Uint(o.RandDraws)
		dense(e, o.LastHp)
		dense(e, o.LastHu)
		e.Uint(uint64(len(o.SfHist)))
		for _, s := range o.SfHist {
			e.Int(int64(s.Time))
			dense(e, s.Sf)
			e.Uint(uint64(len(s.Seen)))
			for _, b := range s.Seen {
				e.Bool(b)
			}
		}
		entries := map[int][]int{} // user id → indices into the flat history
		for i, g := range o.UserIDs {
			entries[g] = append(entries[g], i)
		}
		gids := make([]int, 0, len(entries))
		for g := range entries {
			gids = append(gids, g)
		}
		sort.Ints(gids)
		e.Uint(uint64(len(gids)))
		for _, g := range gids {
			e.Int(int64(g))
			e.Uint(uint64(len(entries[g])))
			for _, i := range entries[g] {
				e.Int(int64(o.UserTimes[i]))
				row := o.UserRows.Row(i)
				e.Uint(uint64(len(row)))
				for _, f := range row {
					e.Float(f)
				}
			}
		}
	})
	section(tagFactors, func(e *WireEncoder) {
		dense(e, sp)
		dense(e, su)
		dense(e, st.LastFactors.Sf)
		dense(e, st.LastFactors.Hp)
		dense(e, st.LastFactors.Hu)
	})
	if st.Epoch != 0 {
		section(tagEpoch, func(e *WireEncoder) { e.Uint(st.Epoch) })
	}
	if st.Conform != nil && !st.Conform.IsZero() {
		payload.WriteByte(tagConform)
		prof := st.Conform.AppendBinary(nil)
		payload.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(prof))))
		payload.Write(prof)
	}
	payload.WriteByte(tagEnd)
	return reframe(versionFixed, payload.Bytes())
}

// TestVersion2StillDecodes: an upgraded daemon must load the data dir its
// predecessor wrote. A version-2 snapshot decodes to the same state as
// its version-3 encoding — every section, negative labels, masks, the
// optional epoch and conformance sections — minus the Sp and Su it
// carried. Labelled as version 3 the same bytes are corrupt, never
// half-read.
func TestVersion2StillDecodes(t *testing.T) {
	// Without the optional sections first: the earliest version-2 builds
	// knew neither epochs nor conformance profiles.
	early := fullState()
	early.Epoch = 0
	got, err := Decode(bytes.NewReader(encodeV2(early, nil, nil)))
	if err != nil || !reflect.DeepEqual(got, early) {
		t.Fatalf("version-2 snapshot without optional sections: %v", err)
	}

	st := fullState()
	st.Conform = warmConformProfile()
	v2 := encodeV2(st, denseOf(1, 3, 0.2, 0.3, 0.5), denseOf(2, 3, 1, 2, 3, 4, 5, 6))
	got, err = Decode(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("version-2 snapshot rejected: %v", err)
	}
	v3 := mustEncode(t, st)
	if !bytes.Equal(mustEncode(t, got), v3) {
		t.Fatal("version-2 snapshot decodes to a different state than its version-3 encoding")
	}
	if len(v3) >= len(v2) {
		t.Fatalf("version 3 is %d bytes, version 2 %d: want smaller", len(v3), len(v2))
	}
	if _, err := Decode(bytes.NewReader(reframe(Version, payloadOf(v2)))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fixed-width body under a version-3 header: got %v, want ErrCorrupt", err)
	}
	if _, err := Decode(bytes.NewReader(reframe(1, payloadOf(v2)))); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 1: got %v, want ErrVersion", err)
	}
}
