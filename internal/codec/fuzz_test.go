package codec

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzDecode hammers the snapshot decoder with hostile bytes. The corpus
// is seeded from the checked-in golden fixtures of every readable version
// (version 5, three topics; version 4, the same three; version 3 with every
// matrix dense, as its last build wrote it and with the wide history of
// earlier ones; fixed-width version 2) plus in-memory encodings and
// targeted mutations of them — one forgery per matrix form version 4
// added, and per list, set and history rule of version 5 — so the fuzzer
// starts inside every layout of the format and walks outward — exactly the
// byte streams the cluster hand-off path (PUT restore of an
// attacker-supplied body) must survive. Three properties are enforced on
// every input:
//
//  1. Decode never panics or over-allocates its way to an OOM (the run
//     itself enforces this);
//  2. whatever Decode accepts must re-encode — but for a user history only
//     the signed ids and timestamps of versions 2 to 4 could spell (a
//     negative or unsorted id, a row after the last step), which no solver
//     accepts and version 5 has no encoding for — and
//  3. the re-encoding must decode again to the identical byte encoding —
//     the determinism contract equal states sign up for.
func FuzzDecode(f *testing.F) {
	for _, fixture := range []string{
		"../../testdata/golden_v5.snap",
		"../../testdata/golden_v5_offline.snap",
		"../../testdata/golden_v5_retweet.snap",
		"../../testdata/golden_v4.snap",
		"../../testdata/golden_v4_offline.snap",
		"../../testdata/golden_v4_retweet.snap",
		"../../testdata/golden_v3.snap",
		"../../testdata/golden_v3_wide_history.snap",
		"../../testdata/golden_v2.snap",
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
	}
	f.Add(mustEncode(f, fullState()))
	st := fullState()
	st.Epoch = 42
	f.Add(mustEncode(f, st))
	f.Add(encodeV2(st, nil, nil))
	// A matrix of each version-4 form, then each form forged: a dictionary
	// whose indices (0 1 0) name its rows before their first use, and a
	// derived matrix with no factors section to derive it from.
	forms := payloadOf(mustEncode(f, formsState()))
	f.Add(reframe(Version, forms))
	indices := bytes.Index(forms, []byte{formDict, 3, 3, 2}) + 4 + 2*24
	f.Add(reframe(Version, append(append(append([]byte(nil), forms[:indices]...), 1, 0, 1), forms[indices+3:]...)))
	f.Add(reframe(Version, withoutSection(f, forms, tagFactors)))
	// Version 5's rules, each forged once on fullState: a lexicon whose
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

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly — the common, correct outcome
		}
		var out bytes.Buffer
		if err := Encode(&out, st); err != nil {
			if binary.LittleEndian.Uint16(data[8:]) < versionPacked && encodable(st.Online) != nil {
				return // a history that was never one
			}
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
