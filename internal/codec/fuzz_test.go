package codec

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzDecode hammers the snapshot decoder with hostile bytes. The corpus
// is seeded from the checked-in golden fixtures of the one readable version
// (three topics), each also with every section damaged under a valid
// checksum, plus in-memory encodings and targeted mutations of them —
// one forgery per matrix form, and per list, set and history rule — so the
// fuzzer starts inside every layout of the format and walks outward —
// exactly the byte streams the cluster hand-off path (PUT restore of an
// attacker-supplied body) must survive. Three properties are enforced on
// every input:
//
//  1. Decode never panics or over-allocates its way to an OOM (the run
//     itself enforces this);
//  2. whatever Decode accepts must re-encode, and
//  3. the re-encoding must decode again to the identical byte encoding —
//     the determinism contract equal states sign up for.
func FuzzDecode(f *testing.F) {
	for _, fixture := range []string{
		"../../testdata/golden_v5.snap",
		"../../testdata/golden_v5_offline.snap",
		"../../testdata/golden_v5_retweet.snap",
	} {
		golden, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		// A bit-flip and a truncation of the golden fixture as explicit
		// hostile seeds.
		flip := append([]byte(nil), golden...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
		f.Add(golden[:len(golden)*2/3])
		// A flip fails the checksum before any section is parsed. Per
		// section, its first body byte flipped and its body one byte short,
		// reframed, reach the section decoders instead.
		payload := payloadOf(golden)
		for at := 0; payload[at] != tagEnd; {
			tag, body, size := payload[at], at+9, int(binary.LittleEndian.Uint64(payload[at+1:]))
			if size > 0 {
				flipped := append([]byte(nil), payload...)
				flipped[body] ^= 0x01
				f.Add(reframe(Version, flipped))
				f.Add(reframe(Version, spliceSection(f, payload, tag, size-1, 1, nil)))
			}
			at = body + size
		}
	}
	f.Add(mustEncode(f, fullState()))
	st := fullState()
	st.Epoch = 42
	f.Add(mustEncode(f, st))
	// A matrix of each form, then each form forged: a dictionary
	// whose indices (0 1 0) name its rows before their first use, and a
	// derived matrix with no factors section to derive it from.
	forms := payloadOf(mustEncode(f, formsState()))
	f.Add(reframe(Version, forms))
	indices := bytes.Index(forms, []byte{formDict, 3, 3, 2}) + 4 + 2*24
	f.Add(reframe(Version, append(append(append([]byte(nil), forms[:indices]...), 1, 0, 1), forms[indices+3:]...)))
	f.Add(reframe(Version, withoutSection(f, forms, tagFactors)))
	// The list, set and history rules, each forged once on fullState: a lexicon whose
	// second key repeats the first ("bad", then all three bytes shared and
	// nothing more), a label set one bit longer than its largest member, and
	// a user history whose row counts (2 2) do not add up to its three rows.
	full := payloadOf(mustEncode(f, fullState()))
	f.Add(reframe(Version, spliceSection(f, full, tagLexicon, 6, 6, []byte{3, 0})))
	f.Add(reframe(Version, spliceSection(f, full, tagUsers, 8, 1, []byte{2})))
	_, online := findSection(f, full, tagOnline)
	f.Add(reframe(Version, spliceSection(f, full, tagOnline, online-(2+3+72), 1, []byte{2})))
	f.Add([]byte("TRICSNAP"))
	f.Add([]byte{})
	// golden_v5.snap's conformance section with a profile version this
	// build does not read (2), and with a metric count one short (6, at
	// byte 73).
	golden := payloadOf(readFixture(f, "golden_v5.snap"))
	f.Add(reframe(Version, spliceSection(f, golden, tagConform, 0, 1, []byte{2})))
	f.Add(reframe(Version, spliceSection(f, golden, tagConform, 73, 1, []byte{6})))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly — the common, correct outcome
		}
		var out bytes.Buffer
		if err := Encode(&out, st); err != nil {
			t.Fatalf("decoded state does not re-encode: %v", err)
		}
		st2, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		var out2 bytes.Buffer
		if err := Encode(&out2, st2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point: %d vs %d bytes", out.Len(), out2.Len())
		}
	})
}
