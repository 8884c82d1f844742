package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"strings"
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
				Seed: 17, LexiconInit: true,
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
func findSection(t testing.TB, payload []byte, tag byte) (body, size int) {
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
func spliceSection(t testing.TB, payload []byte, tag byte, off, n int, repl []byte) []byte {
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

	// Through the row dictionary: rows that == calls equal (−0 and +0) or
	// never equal to themselves (NaN) are told apart, and found again, by
	// their bits. Eight rows, five distinct.
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	st = fullState()
	st.VocabWords = []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	st.Sf0 = denseOf(8, 3,
		0, 0, 1,
		negZero, 0, 1,
		nanA, 0, 1,
		nanB, 0, 1,
		0, 0, 1,
		nanA, 0, 1,
		math.Inf(1), math.Inf(-1), 1,
		negZero, 0, 1)
	snap := mustEncode(t, st)
	body, _ := findSection(t, payloadOf(snap), tagVocab)
	// frozen flag, word count, eight one-letter words (shared length,
	// length, letter), then the matrix.
	if hdr := payloadOf(snap)[body+2+24:][:4]; !bytes.Equal(hdr, []byte{formDict, 8, 3, 5}) {
		t.Fatalf("Sf0 starts % x, want a 8x3 dictionary of 5 rows", hdr)
	}
	got, err = Decode(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range st.Sf0.Data() {
		if have := got.Sf0.Data()[i]; math.Float64bits(have) != math.Float64bits(want) {
			t.Fatalf("Sf0 entry %d: bits %x, want %x", i, math.Float64bits(have), math.Float64bits(want))
		}
	}
	if !bytes.Equal(mustEncode(t, got), snap) {
		t.Fatal("dictionary of special values does not re-encode to the same bytes")
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

// TestOnlyVersion5Decodes: this build reads the version Encode writes and
// no other. golden_v4.snap is what the last version-4 build wrote, intact
// (its checksum holds): it and every header from 1 to 4 or past 5, over its
// payload or over a version-5 one, answer ErrVersion naming version 5 —
// the recoverable-skew path (quarantine at startup,
// unsupported_snapshot_version over HTTP) — and are never half-read as
// corrupt.
func TestOnlyVersion5Decodes(t *testing.T) {
	old := readFixture(t, "golden_v4.snap")
	if v := binary.LittleEndian.Uint16(old[8:]); v != 4 {
		t.Fatalf("golden_v4.snap has a version-%d header", v)
	}
	want := "this build reads version 5 only"
	if _, err := Decode(bytes.NewReader(old)); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), want) {
		t.Fatalf("golden_v4.snap: got %v, want ErrVersion: %s", err, want)
	}
	for _, body := range []struct {
		name    string
		payload []byte
	}{
		{"golden_v4.snap", payloadOf(old)},
		{"version 5", payloadOf(mustEncode(t, fullState()))},
	} {
		for _, v := range []uint16{1, 2, 3, 4, Version + 1, 1<<16 - 1} {
			_, err := Decode(bytes.NewReader(reframe(v, body.payload)))
			if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s under a version-%d header: got %v, want ErrVersion: %s", body.name, v, err, want)
			}
		}
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
	// The online section ends with the user history: rows 3, k 3, the id
	// set {0, 7} (count 8, one byte), the row counts 1 2, the ages 1 1 0 and
	// 72 bytes of floats. Neither rows nor k may size anything the bytes
	// that remain cannot back.
	online, size := findSection(t, payload, tagOnline)
	hist := size - (1 + 1 + 2 + 2 + 3 + 72)
	if hdr := payload[online+hist:][:6]; !bytes.Equal(hdr, []byte{3, 3, 8, 0b10000001, 1, 2}) {
		t.Fatalf("user history starts % x", hdr)
	}
	for _, huge := range []uint64{1 << 28, 1 << 61, 1<<64 - 1} {
		count := binary.AppendUvarint(nil, huge)
		reject("history row count", spliceSection(t, payload, tagOnline, hist, 1, count))
		reject("history row width", spliceSection(t, payload, tagOnline, hist+1, 1, count))
	}
	// A mask whose bit count no bitset in the section could back.
	d := &decoder{buf: binary.AppendUvarint(nil, 1<<64-1)}
	if d.bools(); !errors.Is(d.err, ErrCorrupt) {
		t.Fatalf("hostile mask count: got %v, want ErrCorrupt", d.err)
	}
}

// readFixture reads a checked-in snapshot.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	snap, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestMatrixForms: Encode stores no matrix the rest of the snapshot
// determines, and stores every matrix it cannot prove determined. Each
// case round-trips to an equal state (float bits included) and re-encodes
// to the same bytes; the forms written are read back off the bytes.
func TestMatrixForms(t *testing.T) {
	// The solver records Sf with its rows L1-normalized. 1/3 and 0.1 are
	// inexact, a zero row derives to the uniform one.
	recorded := func(sf *mat.Dense) *mat.Dense {
		out := sf.Clone()
		out.NormalizeRowsL1()
		return out
	}
	derivable := func() *engine.State {
		st := fullState()
		st.LastFactors.Sf = denseOf(3, 3, 0.1, 0.2, 0.7, 0, 0, 0, 3, 1e-9, 1.0/3)
		hist := st.Online.SfHist
		hist[len(hist)-1].Sf = recorded(st.LastFactors.Sf)
		// After a step the warm-start cores are the last solve's.
		st.Online.LastHp, st.Online.LastHu = st.LastFactors.Hp.Clone(), st.LastFactors.Hu.Clone()
		return st
	}
	stored, same := []byte{formDense, formDense}, []byte{formDerived, formDerived}
	for _, tc := range []struct {
		name  string
		state func() *engine.State
		sf0   byte
		hist  []byte // the form of each feature snapshot, oldest first
		cores []byte // the forms of LastHp and LastHu
	}{
		{"newest snapshot is the last solve's", derivable, formDict, []byte{formDense, formDerived}, same},
		{"last solve is not the snapshot's source", fullState, formDict, []byte{formDense, formDense}, stored},
		{"no last factors", func() *engine.State {
			st := derivable()
			st.LastFactors = nil
			return st
		}, formDict, []byte{formDense, formDense}, stored},
		{"one core off by an ulp", func() *engine.State {
			st := derivable()
			st.Online.LastHp.Set(1, 1, math.Nextafter(1, 2))
			return st
		}, formDict, []byte{formDense, formDerived}, []byte{formDense, formDerived}},
		{"a core the factors section does not hold", func() *engine.State {
			st := derivable()
			st.LastFactors.Hu = nil
			return st
		}, formDict, []byte{formDense, formDerived}, []byte{formDerived, formDense}},
		{"no warm-start cores", func() *engine.State {
			st := derivable()
			st.Online.LastHp, st.Online.LastHu = nil, nil
			return st
		}, formDict, []byte{formDense, formDerived}, []byte{formAbsent, formAbsent}},
		{"one entry off by an ulp", func() *engine.State {
			st := derivable()
			sf := st.Online.SfHist[1].Sf
			sf.Set(2, 2, math.Nextafter(sf.At(2, 2), 1))
			return st
		}, formDict, []byte{formDense, formDense}, same},
		{"older snapshot equals the derivation too", func() *engine.State {
			st := derivable()
			st.Online.SfHist[0].Sf = recorded(st.LastFactors.Sf)
			return st
		}, formDict, []byte{formDense, formDerived}, same},
		{"derivation yields NaN", func() *engine.State {
			st := derivable()
			st.LastFactors.Sf.Set(0, 0, math.Inf(1)) // ∞ × 1/∞
			st.Online.SfHist[1].Sf = recorded(st.LastFactors.Sf)
			return st
		}, formDict, []byte{formDense, formDense}, same},
		{"mask of another length than the matrix", func() *engine.State {
			st := derivable()
			st.Online.SfHist[1].Seen = []bool{true, false}
			return st
		}, formDict, []byte{formDense, formDense}, same},
		{"window 3: two retained snapshots and the newest", func() *engine.State {
			st := derivable()
			st.Config.Window = 3
			st.Online.SfHist = append([]core.SfSnapshotState{
				{Time: 2, Sf: denseOf(3, 3, 1, 0, 0, 0, 1, 0, 0, 0, 1), Seen: []bool{true, true, false}},
			}, st.Online.SfHist...)
			return st
		}, formDict, []byte{formDense, formDense, formDerived}, same},
		{"no history", func() *engine.State {
			st := derivable()
			st.Online.SfHist = nil
			st.Online.UserIDs, st.Online.UserTimes, st.Online.UserRows = nil, nil, nil
			return st
		}, formDict, nil, same},
		{"prior with more distinct rows than a dictionary holds", func() *engine.State {
			st := derivable()
			st.Sf0 = mat.NewDense(dictMaxRows+1, 3)
			for i := 0; i <= dictMaxRows; i++ {
				st.Sf0.Set(i, 0, float64(i))
			}
			return st
		}, formDense, []byte{formDense, formDerived}, same},
		{"prior with exactly as many", func() *engine.State {
			st := derivable()
			st.Sf0 = mat.NewDense(dictMaxRows+1, 3)
			for i := 0; i <= dictMaxRows; i++ {
				st.Sf0.Set(i, 0, float64(i%dictMaxRows))
			}
			return st
		}, formDict, []byte{formDense, formDerived}, same},
		{"prior wider than a dictionary row", func() *engine.State {
			st := derivable()
			st.Sf0 = mat.NewDense(2, dictMaxCols+1)
			return st
		}, formDense, []byte{formDense, formDerived}, same},
		{"empty prior", func() *engine.State {
			st := derivable()
			st.Sf0 = mat.NewDense(0, 3)
			return st
		}, formDict, []byte{formDense, formDerived}, same},
		{"no prior", func() *engine.State {
			st := derivable()
			st.Sf0 = nil
			return st
		}, formAbsent, []byte{formDense, formDerived}, same},
	} {
		st := tc.state()
		snap := mustEncode(t, st)
		got, err := Decode(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("%s: Decode: %v", tc.name, err)
		}
		if !bytes.Equal(mustEncode(t, got), snap) {
			t.Fatalf("%s: decoded state re-encodes to other bytes", tc.name)
		}
		want, have := matrixData(st), matrixData(got)
		if len(want) != len(have) || !sameBits(want, have) {
			t.Fatalf("%s: matrices differ after the round trip", tc.name)
		}
		// == cannot compare a state that holds a NaN; its bits just were.
		nan := false
		for _, v := range want {
			nan = nan || v != v
		}
		if !nan && !reflect.DeepEqual(st, got) {
			t.Fatalf("%s: round trip mismatch:\n want %+v\n got  %+v", tc.name, st, got)
		}
		sf0, cores, hist := formsOf(t, snap)
		if sf0 != tc.sf0 || !bytes.Equal(hist, tc.hist) || !bytes.Equal(cores, tc.cores) {
			t.Fatalf("%s: forms Sf0 %d, cores %v, history %v; want %d, %v, %v", tc.name, sf0, cores, hist, tc.sf0, tc.cores, tc.hist)
		}
	}
}

// TestGoldenNewestSnapshotDerived: golden_v5.snap, the golden topic's
// checked-in snapshot, stores its newest feature snapshot in the derived
// form, so the state digest the root package pins it to covers the
// derivation's arithmetic (rowScale, scaled): a change of it changes what
// that file decodes to.
func TestGoldenNewestSnapshotDerived(t *testing.T) {
	_, _, hist := formsOf(t, readFixture(t, "golden_v5.snap"))
	if len(hist) == 0 || hist[len(hist)-1] != formDerived {
		t.Fatalf("golden_v5.snap feature history forms %v: want the newest derived", hist)
	}
}

// matrixData flattens the matrices the forms are about — the prior, the
// last solve's Sf, the feature history — for the bit comparison
// reflect.DeepEqual's == does not make (NaN, −0).
func matrixData(st *engine.State) []float64 {
	var out []float64
	if st.Sf0 != nil {
		out = append(out, st.Sf0.Data()...)
	}
	if st.LastFactors != nil {
		out = append(out, st.LastFactors.Sf.Data()...)
	}
	for _, s := range st.Online.SfHist {
		out = append(out, s.Sf.Data()...)
	}
	return out
}

// formsOf reads, off a current-version snapshot's bytes, the form byte of
// Sf0, of the two warm-start cores and of every feature snapshot.
func formsOf(t *testing.T, snap []byte) (sf0 byte, cores, hist []byte) {
	t.Helper()
	payload := payloadOf(snap)
	section := func(tag byte) *decoder {
		body, size := findSection(t, payload, tag)
		return &decoder{buf: payload[body : body+size]}
	}
	d := section(tagVocab)
	d.bool()
	d.stringList(true, false)
	sf0 = d.form()

	d = section(tagOnline)
	d.bool()
	d.byte()
	d.uint()
	for range 2 {
		form := d.form()
		cores = append(cores, form)
		if form != formDerived {
			d.matrix(form, false)
		}
	}
	for n := d.uint(); n > 0; n-- {
		d.int()
		form := d.form()
		hist = append(hist, form)
		if form != formDerived {
			d.matrix(form, false)
		}
		d.bools()
	}
	if d.err != nil {
		t.Fatalf("walking the online section: %v", d.err)
	}
	return sf0, cores, hist
}

// formsState is fullState with a prior of two distinct rows (A B A) and a
// newest feature snapshot that is the last solve's Sf row-normalized, so
// its encoding holds a matrix of each form.
func formsState() *engine.State {
	st := fullState()
	st.Sf0 = denseOf(3, 3, 0.1, 0.1, 0.8, 0.8, 0.1, 0.1, 0.1, 0.1, 0.8)
	st.LastFactors.Sf = denseOf(3, 3, 1, 1, 2, 0, 0, 0, 3, 1, 0)
	st.Online.SfHist[1].Sf = st.LastFactors.Sf.Clone()
	st.Online.SfHist[1].Sf.NormalizeRowsL1()
	return st
}

// withoutSection cuts a section out of a payload.
func withoutSection(t testing.TB, payload []byte, tag byte) []byte {
	body, size := findSection(t, payload, tag)
	return append(append([]byte(nil), payload[:body-9]...), payload[body+size:]...)
}

// TestMatrixFormsStrict: the new forms have one spelling and fixed places.
// Everything else — sizes past the data, indices past the dictionary, a
// second dictionary for the same matrix, a form where it is not legal, a
// form of a later version — is ErrCorrupt, from a snapshot whose checksum
// is right.
func TestMatrixFormsStrict(t *testing.T) {
	good := mustEncode(t, formsState())
	payload := payloadOf(good)
	if sf0, cores, hist := formsOf(t, good); sf0 != formDict || !bytes.Equal(cores, []byte{formDense, formDense}) || !bytes.Equal(hist, []byte{formDense, formDerived}) {
		t.Fatalf("fixture forms: Sf0 %d, cores %v, history %v", sf0, cores, hist)
	}
	// reject also holds each forgery to the check it was forged for: the
	// offsets below are by hand, and a slip would still be corrupt somehow.
	reject := func(name, why string, forged []byte) {
		t.Helper()
		_, err := Decode(bytes.NewReader(reframe(Version, forged)))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), why) {
			t.Fatalf("%s: got %v, want ErrCorrupt: %s", name, err, why)
		}
	}

	// Sf0 sits in the vocab section after the frozen flag, the word count
	// and three words of 3 + 4 + 6 letters that share no prefix (a shared
	// length and a length byte each): form, rows 3, cols 3, d 2, two 24-byte
	// rows, indices 0 1 0.
	const sf0At = 1 + 1 + 5 + 6 + 8
	const idxAt = sf0At + 4 + 48
	vocab, _ := findSection(t, payload, tagVocab)
	if hdr := payload[vocab+sf0At:][:4]; !bytes.Equal(hdr, []byte{formDict, 3, 3, 2}) {
		t.Fatalf("Sf0 header % x", hdr)
	}
	rowA := payload[vocab+sf0At+4:][:24]
	rowB := payload[vocab+sf0At+28:][:24]
	huge := binary.AppendUvarint(nil, 1<<61)
	most := binary.AppendUvarint(nil, 1<<64-1)
	reject("dictionary size past the data", "length past end of data", spliceSection(t, payload, tagVocab, sf0At+3, 1, []byte{dictMaxRows}))
	reject("dictionary size past the format", "larger than the format allows", spliceSection(t, payload, tagVocab, sf0At+3, 1, []byte{dictMaxRows + 1}))
	reject("dictionary size overflowing", "larger than the format allows", spliceSection(t, payload, tagVocab, sf0At+3, 1, most))
	reject("dictionary width past the format", "larger than the format allows", spliceSection(t, payload, tagVocab, sf0At+2, 1, []byte{dictMaxCols + 1}))
	reject("dictionary width overflowing", "larger than the format allows", spliceSection(t, payload, tagVocab, sf0At+2, 1, most))
	reject("index count past the data", "more dictionary indices than remaining data", spliceSection(t, payload, tagVocab, sf0At+1, 1, huge))
	reject("index count overflowing", "more dictionary indices than remaining data", spliceSection(t, payload, tagVocab, sf0At+1, 1, most))
	reject("index past the dictionary", "index out of range or not in order", spliceSection(t, payload, tagVocab, idxAt+2, 1, []byte{2}))
	reject("index before its first use", "index out of range or not in order", spliceSection(t, payload, tagVocab, idxAt, 2, []byte{1, 0}))
	reject("unused dictionary row", "unused dictionary row", spliceSection(t, payload, tagVocab, idxAt+1, 1, []byte{0}))
	reject("non-minimal index", "non-minimal varint", spliceSection(t, payload, tagVocab, idxAt+1, 1, []byte{0x81, 0x00}))
	reject("duplicate dictionary rows", "duplicate dictionary row", spliceSection(t, payload, tagVocab, sf0At+28, 24, rowA))
	reject("empty dictionary for three rows", "index out of range or not in order", spliceSection(t, payload, tagVocab, sf0At+3, 49, []byte{0}))
	// Rows in another order than first use: B, A with indices 1 0 1 names
	// the same matrix a second way.
	swapped := spliceSection(t, payload, tagVocab, sf0At+4, 48, append(append([]byte(nil), rowB...), rowA...))
	reject("dictionary not in order of first use", "index out of range or not in order", spliceSection(t, swapped, tagVocab, idxAt, 3, []byte{1, 0, 1}))
	// Zero-width rows are all one row.
	empty := []byte{formDict, 2, 0, 2, 0, 1}
	reject("two empty dictionary rows", "duplicate dictionary row", spliceSection(t, payload, tagVocab, sf0At, 4+48+3, empty))
	if _, err := Decode(bytes.NewReader(reframe(Version, spliceSection(t, payload, tagVocab, sf0At, 4+48+3, []byte{formDict, 2, 0, 1, 0, 0})))); err != nil {
		t.Fatalf("2x0 dictionary matrix rejected: %v", err)
	}

	// The factors section starts with Sf; the online section with its flag,
	// the generator, a two-byte draw count and two 2x2 cores, then the
	// history: count, time, form …
	const histAt = 1 + 1 + 2 + 2*(3+32)
	online, _ := findSection(t, payload, tagOnline)
	if hdr := payload[online+histAt:][:3]; !bytes.Equal(hdr, []byte{2, 6, formDense}) {
		t.Fatalf("history header % x", hdr)
	}
	// The newest entry: time, the form byte, a three-bit mask; then the
	// user history.
	newestAt := histAt + 1 + 1 + (3 + 72) + 2
	if e := payload[online+newestAt:][:4]; !bytes.Equal(e, []byte{8, formDerived, 3, 0b110}) {
		t.Fatalf("newest history entry % x", e)
	}
	reject("dictionary where only dense is legal", "form not legal at this position", spliceSection(t, payload, tagFactors, 0, 1, []byte{formDict}))
	reject("derived where only dense is legal", "form not legal at this position", spliceSection(t, payload, tagFactors, 0, 1, []byte{formDerived}))
	reject("derived prior", "form not legal at this position", spliceSection(t, payload, tagVocab, sf0At, 4+48+3, []byte{formDerived}))
	reject("dictionary in the history", "form not legal at this position", spliceSection(t, payload, tagOnline, newestAt+1, 1, append([]byte{formDict, 3, 3, 1}, append(append([]byte(nil), rowA...), 0, 0, 0)...)))
	reject("derived older entry", "derived matrix in an older feature snapshot", spliceSection(t, payload, tagOnline, histAt+2, 3+72, []byte{formDerived}))
	reject("derived matrix of another shape than its mask", "another shape than its mask", spliceSection(t, payload, tagOnline, newestAt+2, 2, []byte{2, 0b10}))
	reject("unknown form", "unknown matrix form", spliceSection(t, payload, tagOnline, newestAt+1, 1, []byte{formDerived + 1}))
	reject("unknown form of the prior", "unknown matrix form", spliceSection(t, payload, tagVocab, sf0At, 1, []byte{0xff}))

	// Derived with nothing to derive from: the factors section cut out,
	// behind the online section, or without an Sf.
	factors, fsize := findSection(t, payload, tagFactors)
	without := withoutSection(t, payload, tagFactors)
	reject("derived without a factors section", "no factors Sf in front", without)
	end := len(without) - 1 // the end tag
	behind := append(append(append([]byte(nil), without[:end]...), payload[factors-9:factors+fsize]...), tagEnd)
	reject("derived before the factors section", "no factors Sf in front", behind)
	reject("derived against absent factors Sf", "no factors Sf in front", spliceSection(t, payload, tagFactors, 0, 3+72, []byte{formAbsent}))
	// With the newest entry stored the online section reads without the
	// factors in front of it, but the sections have one order: the factors
	// section behind it is corrupt, as is every matrix stored although a
	// smaller form holds it.
	zeros := append([]byte{formDense, 3, 3}, make([]byte, 72)...)
	reject("factors section behind the online section", "behind the online section", spliceSection(t, behind, tagOnline, newestAt+1, 1, zeros))
	stored := spliceSection(t, payload, tagOnline, newestAt+1, 1, zeros)
	st, err := Decode(bytes.NewReader(reframe(Version, stored)))
	if err != nil {
		t.Fatalf("stored newest entry that is not the last solve's: %v", err)
	}
	if !bytes.Equal(payloadOf(mustEncode(t, st)), stored) {
		t.Fatal("stored newest entry: accepted, but the decoded state encodes to other bytes")
	}
	state := formsState()
	e := &encoder{}
	e.dense(state.Online.SfHist[1].Sf)
	reject("derivable newest entry stored", "although the factors section determines it", spliceSection(t, payload, tagOnline, newestAt+1, 1, e.buf))
	e = &encoder{}
	e.dense(state.Sf0)
	reject("prior stored dense within the dictionary's limits", "although a row dictionary holds it", spliceSection(t, payload, tagVocab, sf0At, 4+48+3, e.buf))
}

// TestPackedListsStrict: the lists, sets and ages have one spelling too. A
// key list is strictly increasing (a repeated key would decode to a smaller
// map and re-encode to other bytes), a shared length is the whole common prefix and no
// longer than the word before, an id set ends in its largest member and
// agrees with what follows it, an age reaches no further back than a
// timestamp can say, and a derived core has a core to be. Everything else is
// ErrCorrupt from a snapshot whose checksum is right — and every section
// the forgeries start from is Encode's own bytes.
func TestPackedListsStrict(t *testing.T) {
	type word struct {
		shared int
		rest   string
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	words := func(ws ...word) []byte {
		e := &encoder{}
		e.uint(uint64(len(ws)))
		for _, w := range ws {
			e.uint(uint64(w.shared))
			e.string(w.rest)
		}
		return e.buf
	}
	ints := func(vs ...int64) []byte {
		e := &encoder{}
		for _, v := range vs {
			e.int(v)
		}
		return e.buf
	}
	uints := func(vs ...uint64) []byte {
		e := &encoder{}
		for _, v := range vs {
			e.uint(v)
		}
		return e.buf
	}
	set := func(n uint64, bits ...byte) []byte { return append(uints(n), bits...) }
	floats := func(n int) []byte { return make([]byte, 8*n) }
	long := strings.Repeat("a", maxShared+4)

	// Cores that are the factors section's, so they are written derived.
	frozen := formsState()
	frozen.Online.LastHp, frozen.Online.LastHu = frozen.LastFactors.Hp.Clone(), frozen.LastFactors.Hu.Clone()
	unfrozen := &engine.State{
		Config:      frozen.Config,
		LexiconHit:  0.8,
		MinDF:       2,
		Lexicon:     map[string]int{"bad": 1, "good": 0},
		VocabCounts: map[string]int{"bad": 2, "baz": 1},
		VocabDocs:   3,
		Users:       frozen.Users,
		Online:      &core.OnlineState{},
	}
	hu := frozen.LastFactors.Hu
	huDense := (&encoder{})
	huDense.dense(hu)

	// Where the forged bytes go. The vocab section of an unfrozen topic is
	// flag, no words, no prior (a byte each), then the document-frequency
	// map and the document count; the users section two names (1 + 4 + 3
	// bytes), then the labels; the online section flag, generator, two draw
	// bytes, the two cores; and, at its end, the user history of fullState:
	// 1 + 1 + 2 + 2 + 3 + 72 bytes (see TestHostileCountsRejected), dated
	// against a newest feature snapshot timed 4. The factors section is three
	// dense 3x3 matrices.
	const (
		toEnd    = -1
		countsAt = 3
		labelsAt = 1 + 4 + 3
		coresAt  = 1 + 1 + 2
		histLen  = 1 + 1 + 2 + 2 + 3 + 72
		matrix   = 3 + 72
	)
	mostNegative := uint64(4) + 1<<63 // the age of a row timed math.MinInt64

	for _, tc := range []struct {
		name   string
		state  *engine.State
		tag    byte
		off, n int // the bytes replaced: n from off; a negative off counts from the section's end
		body   []byte
		why    string // "" if Decode must accept, and Encode must write the same bytes
	}{
		{"lexicon as Encode writes it", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{0, "bad"}, word{0, "good"}), ints(1, 0)), ""},
		{"repeated lexicon key", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{0, "bad"}, word{3, ""}), ints(1, 0)), "not strictly increasing"},
		{"lexicon keys out of order", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{0, "good"}, word{0, "bad"}), ints(0, 1)), "not strictly increasing"},
		{"a key that is a prefix of the key before it", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{0, "bad"}, word{2, ""}), ints(1, 0)), "not strictly increasing"},
		{"shared prefix longer than the word before", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{0, "bad"}, word{4, "x"}), ints(1, 0)), "longer prefix than the word before it has"},
		{"first word shares a prefix with nothing", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{1, "ad"}, word{0, "good"}), ints(1, 0)), "longer prefix than the word before it has"},
		{"shared prefix at the format's limit", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{0, long}, word{maxShared, "aaab"}), ints(1, 0)), ""},
		{"shared prefix past the format's limit", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{0, long}, word{maxShared + 1, "aab"}), ints(1, 0)), "than the format allows"},
		{"shared prefix shorter than the words share", unfrozen, tagLexicon, 0, toEnd,
			cat(words(word{0, "bad"}, word{1, "az"}), ints(1, 0)), "than it says"},
		{"lexicon section that holds nothing", unfrozen, tagLexicon, 0, toEnd, words(), "empty lexicon section"},
		{"vocabulary counts as Encode writes them", unfrozen, tagVocab, countsAt, toEnd,
			cat(words(word{0, "bad"}, word{2, "z"}), ints(2, 1), uints(3)), ""},
		{"repeated vocabulary-count key", unfrozen, tagVocab, countsAt, toEnd,
			cat(words(word{0, "bad"}, word{3, ""}), ints(2, 1), uints(3)), "not strictly increasing"},
		// A vocabulary is a word list, not a key list: any order decodes
		// (the engine holds its words to being distinct).
		{"unsorted vocabulary", frozen, tagVocab, 1, 1 + 5 + 6 + 8,
			words(word{0, "good"}, word{0, "bad"}, word{0, "prop37"}), ""},
		{"vocabulary word hiding a shared prefix", frozen, tagVocab, 1, 1 + 5 + 6 + 8,
			words(word{0, "bad"}, word{0, "bood"}, word{0, "prop37"}), "than it says"},

		{"labels as Encode writes them", frozen, tagUsers, labelsAt, toEnd, cat(set(1, 0b1), ints(0)), ""},
		{"no labelled user", frozen, tagUsers, labelsAt, toEnd, uints(0), ""},
		{"both users labelled", frozen, tagUsers, labelsAt, toEnd, cat(set(2, 0b11), ints(0, -2)), ""},
		{"id set longer than its largest member", frozen, tagUsers, labelsAt, toEnd,
			cat(set(2, 0b01), ints(0)), "longer than its largest member"},
		{"label for a user past the universe", frozen, tagUsers, labelsAt, toEnd,
			cat(set(3, 0b101), ints(0, 1)), "past the universe"},
		{"labelled user without a label", frozen, tagUsers, labelsAt, toEnd,
			cat(set(1, 0b1), ints(-1)), "without a label"},
		{"fewer labels than labelled users", frozen, tagUsers, labelsAt, toEnd,
			cat(set(2, 0b11), ints(0)), "varint"},
		{"more labels than labelled users", frozen, tagUsers, labelsAt, toEnd,
			cat(set(1, 0b1), ints(0, 1)), "trailing bytes"},

		// User history: rows, k, id set, counts when rows > users, ages, block.
		{"history as Encode writes it", frozen, tagOnline, -histLen, toEnd,
			cat(uints(3, 3), set(8, 0b10000001), uints(1, 2, 1, 1, 0), floats(9)), ""},
		{"one row a user, no counts", frozen, tagOnline, -histLen, toEnd,
			cat(uints(2, 3), set(8, 0b10000001), uints(1, 0), floats(6)), ""},
		{"counts although every user holds one row", frozen, tagOnline, -histLen, toEnd,
			cat(uints(2, 3), set(8, 0b10000001), uints(1, 1, 1, 0), floats(6)), "trailing bytes"},
		{"more users than rows", frozen, tagOnline, -histLen, toEnd,
			cat(uints(1, 3), set(8, 0b10000001), uints(0), floats(3)), "more users than rows"},
		{"row counts short of the rows", frozen, tagOnline, -histLen, toEnd,
			cat(uints(4, 3), set(8, 0b10000001), uints(1, 2, 1, 1, 0, 0), floats(12)), "do not add up"},
		{"row counts past the rows", frozen, tagOnline, -histLen, toEnd,
			cat(uints(3, 3), set(8, 0b10000001), uints(1, 3, 1, 1, 0), floats(9)), "do not add up"},
		{"a user of the set with no rows", frozen, tagOnline, -histLen, toEnd,
			cat(uints(3, 3), set(8, 0b10000001), uints(0, 3, 1, 1, 0), floats(9)), "do not add up"},
		{"id set that stops short of its last byte", frozen, tagOnline, -histLen, toEnd,
			cat(uints(3, 3), set(7, 0b10000001), uints(1, 2, 1, 1, 0), floats(9)), "bitset padding"},
		{"a row as old as a timestamp can say", frozen, tagOnline, -histLen, toEnd,
			cat(uints(3, 3), set(8, 0b10000001), uints(1, 2, mostNegative, 1, 0), floats(9)), ""},
		{"a row older than that", frozen, tagOnline, -histLen, toEnd,
			cat(uints(3, 3), set(8, 0b10000001), uints(1, 2, mostNegative+1, 1, 0), floats(9)), "older than a timestamp can say"},
		// An unfrozen topic has no feature snapshot, and its history is the
		// section's last byte: no rows.
		{"history with no feature snapshot to date it", unfrozen, tagOnline, -1, toEnd,
			cat(uints(1, 3), set(1, 0b1), uints(0), floats(3)), "without a feature snapshot"},

		{"cores as Encode writes them", frozen, tagOnline, coresAt, 2, []byte{formDerived, formDerived}, ""},
		{"core stored although the factors section holds it", frozen, tagOnline, coresAt + 1, 1,
			huDense.buf, "although the factors section holds it"},
		{"derived core the factors section holds none of", frozen, tagFactors, matrix, matrix,
			[]byte{formAbsent}, "no such core"},
		{"dictionary core", frozen, tagOnline, coresAt, 1, []byte{formDict}, "form not legal at this position"},
	} {
		payload := payloadOf(mustEncode(t, tc.state))
		_, size := findSection(t, payload, tc.tag)
		off, n := tc.off, tc.n
		if off < 0 {
			off += size
		}
		if n == toEnd {
			n = size - off
		}
		forged := spliceSection(t, payload, tc.tag, off, n, tc.body)
		st, err := Decode(bytes.NewReader(reframe(Version, forged)))
		if tc.why == "" {
			if err != nil {
				t.Fatalf("%s: rejected: %v", tc.name, err)
			}
			if !bytes.Equal(payloadOf(mustEncode(t, st)), forged) {
				t.Fatalf("%s: accepted, but the decoded state encodes to other bytes", tc.name)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("%s: got %v, want ErrCorrupt: %s", tc.name, err, tc.why)
		}
	}

	// A derived core needs the factors section in front of it, whole.
	payload := payloadOf(mustEncode(t, frozen))
	_, err := Decode(bytes.NewReader(reframe(Version, withoutSection(t, payload, tagFactors))))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "no such core") {
		t.Fatalf("derived core without a factors section: got %v, want ErrCorrupt: no such core", err)
	}
	// The lexicon section is optional: an empty lexicon is no section.
	bare := withoutSection(t, payloadOf(mustEncode(t, unfrozen)), tagLexicon)
	st, err := Decode(bytes.NewReader(reframe(Version, bare)))
	if err != nil || st.Lexicon != nil {
		t.Fatalf("no lexicon section: %v, lexicon %v", err, st.Lexicon)
	}
	if !bytes.Equal(payloadOf(mustEncode(t, st)), bare) {
		t.Fatal("a state without a lexicon does not encode to a snapshot without the section")
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
	if _ = d.online(nil); d.err == nil {
		t.Fatal("unknown generator accepted")
	}
	if !errors.Is(d.err, ErrVersion) {
		t.Fatalf("error %v, want ErrVersion", d.err)
	}
}

// TestReservedConfigSlotsAreVersionSkew: config slots 8–12 held, in builds
// that still had them, the weights of three extension regularizers and two
// label lists. Encode writes them zero and empty; a snapshot that sets one —
// exactly what such a build wrote for that field — is intact but asks for an
// objective this build does not have, so it takes the recoverable-skew path,
// not the corrupt one.
func TestReservedConfigSlotsAreVersionSkew(t *testing.T) {
	half := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))
	e := &encoder{} // the list {-1, 2}
	e.uint(2)
	e.int(-1)
	e.int(2)
	labels := e.buf
	payload := payloadOf(mustEncode(t, fullState()))
	if _, err := Decode(bytes.NewReader(reframe(Version, payload))); err != nil {
		t.Fatalf("zero slots rejected: %v", err)
	}
	// k, α, β, sweeps, tolerance, seed, lexicon-init in front.
	const slot8 = 1 + 8 + 8 + 1 + 8 + 1 + 1
	for _, slot := range []struct {
		name   string
		off, n int
		body   []byte
	}{
		{"sparsity weight", slot8, 8, half},
		{"diversity weight", slot8 + 8, 8, half},
		{"guided weight", slot8 + 16, 8, half},
		{"guided tweet labels", slot8 + 24, 1, labels},
		{"guided user labels", slot8 + 24 + 1, 1, labels},
	} {
		forged := spliceSection(t, payload, tagConfig, slot.off, slot.n, slot.body)
		_, err := Decode(bytes.NewReader(reframe(Version, forged)))
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "extension regularizer") {
			t.Errorf("%s set: got %v, want ErrVersion naming the extension", slot.name, err)
		}
	}
}

var updateProfileGolden = flag.Bool("update-profile-golden", false,
	"rewrite testdata/golden_profile_v1.bin (at the repository root) from the current encoder")

// steadyObs is a structurally constant batch: 20 tweets, 3 tokens each,
// no OOV, no duplicates, one tweet per user, unit time step, zero spread.
func steadyObs(step bool) conform.Observation {
	return conform.Observation{
		Tweets: 20, Tokens: 60,
		OOVValid:      true,
		MaxUserTweets: 1,
		TimeStep:      1, StepValid: step,
	}
}

// observe folds o into p, with its verdict once p scores batches, as a
// topic in flag mode does.
func observe(p *conform.Profile, o conform.Observation) {
	if v, ok := p.Score(o); ok {
		p.Observe(o, &v)
	} else {
		p.Observe(o, nil)
	}
}

// goldenProfile deterministically rebuilds the state of
// golden_profile_v1.bin: twelve steady batches of jittered token counts,
// the last four scored.
func goldenProfile() *conform.ProfileState {
	p := conform.NewProfile(conform.Params{})
	for i := 0; i < 12; i++ {
		o := steadyObs(i > 0)
		o.Tokens = 60 + i%3
		observe(p, o)
	}
	s := p.State()
	return &s
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
	zero := conform.NewProfile(conform.Params{}).State()
	zp.Conform = &zero
	if err := Encode(&zeroProf, zp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nilProf.Bytes(), zeroProf.Bytes()) {
		t.Fatal("zero profile must encode identically to no profile")
	}

	ws := fullState()
	ws.Conform = goldenProfile()
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
	if *got.Conform != *ws.Conform {
		t.Fatal("profile did not round-trip bit-exactly")
	}
}

// TestConformSectionVersionSkew: a profile written by a future wire
// version inside an otherwise intact snapshot must surface as ErrVersion
// (the recoverable skew path — startup quarantine, stable error code),
// while structural damage to the section is ErrCorrupt.
func TestConformSectionVersionSkew(t *testing.T) {
	st := fullState()
	st.Conform = goldenProfile()
	// forge rewrites one byte at off within the conform section's body
	// (off 0 is the profile version).
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
	// corruption, not skew (the profile version pins the set).
	if _, err := Decode(bytes.NewReader(forge(73, 200))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("metric-count damage: got %v, want ErrCorrupt", err)
	}
}

// TestProfileRoundTrip: a profile with its own thresholds, past its first
// verdicts, comes back from a snapshot as the same state, which rebuilds a
// profile and re-encodes to the same bytes.
func TestProfileRoundTrip(t *testing.T) {
	p := conform.NewProfile(conform.Params{MinSamples: 4, FlagZ: 3, QuarantineZ: 6})
	for i := 0; i < 10; i++ {
		observe(p, steadyObs(i > 0))
	}
	want := p.State()
	st := fullState()
	st.Conform = &want
	snap := mustEncode(t, st)
	got, err := Decode(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.Conform == nil || *got.Conform != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Conform, want)
	}
	if _, err := conform.NewProfileFromState(*got.Conform); err != nil {
		t.Fatalf("decoded state does not rebuild a profile: %v", err)
	}
	if !bytes.Equal(mustEncode(t, got), snap) {
		t.Fatal("re-encode is not byte-identical (encode∘decode not a fixed point)")
	}
}

// TestProfileRejectsHostileBytes drives damaged conformance sections
// through Decode: each is corrupt (ErrCorrupt), except a profile version
// this build does not read, which is version skew (ErrVersion).
func TestProfileRejectsHostileBytes(t *testing.T) {
	p := conform.NewProfile(conform.Params{})
	for i := 0; i < 8; i++ {
		observe(p, steadyObs(i > 0))
	}
	good := p.State()
	st := fullState()
	st.Conform = &good
	payload := payloadOf(mustEncode(t, st))
	_, size := findSection(t, payload, tagConform)
	decode := func(payload []byte) error {
		_, err := Decode(bytes.NewReader(reframe(Version, payload)))
		return err
	}
	// edited is the payload of st with one field of its profile changed.
	edited := func(edit func(*conform.ProfileState)) []byte {
		bad := good
		edit(&bad)
		st.Conform = &bad
		return payloadOf(mustEncode(t, st))
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 1, 10, size - 1} {
			if err := decode(spliceSection(t, payload, tagConform, n, size-n, nil)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%d-byte truncation: got %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("oversized", func(t *testing.T) {
		if err := decode(spliceSection(t, payload, tagConform, size, 0, []byte{0})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("trailing byte: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		if err := decode(spliceSection(t, payload, tagConform, 0, 1, []byte{99})); !errors.Is(err, ErrVersion) {
			t.Errorf("unknown profile version: got %v, want ErrVersion", err)
		}
	})
	t.Run("counter inversion", func(t *testing.T) {
		// scored > observed: the low byte of scored is at 1+24+8.
		if err := decode(spliceSection(t, payload, tagConform, 1+24+8, 1, []byte{0xff})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("scored > observed: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("nan mean", func(t *testing.T) {
		if err := decode(edited(func(s *conform.ProfileState) { s.Metrics[0].Mean = math.NaN() })); !errors.Is(err, ErrCorrupt) {
			t.Errorf("NaN mean: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("negative m2", func(t *testing.T) {
		if err := decode(edited(func(s *conform.ProfileState) { s.Metrics[0].M2 = -1 })); !errors.Is(err, ErrCorrupt) {
			t.Errorf("negative variance accumulator: got %v, want ErrCorrupt", err)
		}
	})
}

// TestGoldenProfileCompat pins the conformance section's layout: the
// checked-in 354-byte body, spliced into golden_v5.snap, must keep
// decoding to a working profile that re-encodes to the identical bytes in
// every future build, or the profile version must be bumped.
func TestGoldenProfileCompat(t *testing.T) {
	if *updateProfileGolden {
		st := fullState()
		st.Conform = goldenProfile()
		payload := payloadOf(mustEncode(t, st))
		body, size := findSection(t, payload, tagConform)
		if err := os.WriteFile("../../testdata/golden_profile_v1.bin", payload[body:body+size], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw := readFixture(t, "golden_profile_v1.bin")
	if len(raw) != 354 {
		t.Fatalf("golden profile is %d bytes, want 354", len(raw))
	}
	payload := payloadOf(readFixture(t, "golden_v5.snap"))
	_, size := findSection(t, payload, tagConform)
	st, err := Decode(bytes.NewReader(reframe(Version, spliceSection(t, payload, tagConform, 0, size, raw))))
	if err != nil {
		t.Fatalf("golden profile no longer decodes: %v", err)
	}
	re := payloadOf(mustEncode(t, st))
	if body, size := findSection(t, re, tagConform); !bytes.Equal(re[body:body+size], raw) {
		t.Fatal("golden profile re-encodes differently")
	}
	p, err := conform.NewProfileFromState(*st.Conform)
	if err != nil {
		t.Fatalf("golden profile does not rebuild: %v", err)
	}
	if !p.Ready() || st.Conform.Observed != 12 {
		t.Fatalf("golden profile semantics drifted: ready=%v samples=%d", p.Ready(), st.Conform.Observed)
	}
	if v, ok := p.Score(steadyObs(true)); !ok || v.Status != conform.Conforming {
		t.Fatalf("steady batch against golden profile: ok=%v status=%s", ok, v.Status)
	}
}
