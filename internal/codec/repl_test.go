package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func sampleReplFrames() []*ReplAppend {
	snap := []byte("base snapshot bytes, any payload works at this layer")
	return []*ReplAppend{
		{
			Source:    "http://shard-a:8547",
			Epoch:     3,
			SnapCRC:   Checksum(snap),
			Batches:   7,
			RandDraws: 991,
			Tail:      []byte{0x01, 0x05, 0, 0, 0, 1, 2, 3, 4, 5, 9, 9, 9, 9},
		},
		{
			Source:        "http://shard-b:8547",
			Epoch:         0,
			SnapCRC:       Checksum(snap),
			BaseBatches:   4,
			BaseRandDraws: 123,
			Batches:       4,
			RandDraws:     123,
			Snapshot:      snap,
		},
		{
			Source:  "http://shard-c:8547",
			Epoch:   ^uint64(0),
			SnapCRC: Checksum(nil),
		},
	}
}

func encodeRepl(t *testing.T, fr *ReplAppend) []byte {
	t.Helper()
	return AppendReplAppend(nil, fr)
}

func TestReplAppendRoundTrip(t *testing.T) {
	for i, fr := range sampleReplFrames() {
		data := encodeRepl(t, fr)
		got, err := DecodeReplAppend(data)
		if err != nil {
			t.Fatalf("frame %d: DecodeReplAppend: %v", i, err)
		}
		// Normalize empty-vs-nil Tail before comparing.
		if len(got.Tail) == 0 {
			got.Tail = nil
		}
		want := *fr
		if len(want.Tail) == 0 {
			want.Tail = nil
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("frame %d round-trip mismatch:\n got %+v\nwant %+v", i, got, &want)
		}
	}
}

func TestReplAppendRejectsDamage(t *testing.T) {
	base := sampleReplFrames()[1] // the one with a snapshot
	data := encodeRepl(t, base)

	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 7, 13, len(data) / 2, len(data) - 1} {
			if _, err := DecodeReplAppend(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for _, pos := range []int{0, 9, 12, len(data) / 2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x20
			if _, err := DecodeReplAppend(bad); err == nil {
				t.Fatalf("bit flip at %d decoded", pos)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		copy(bad, "NOTREPL!")
		if _, err := DecodeReplAppend(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("bad magic: %v", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[8] = ReplVersion + 1
		// Re-seal the trailer so only the version is wrong.
		body := bad[:len(bad)-4]
		sum := Checksum(body)
		bad[len(bad)-4] = byte(sum)
		bad[len(bad)-3] = byte(sum >> 8)
		bad[len(bad)-2] = byte(sum >> 16)
		bad[len(bad)-1] = byte(sum >> 24)
		if _, err := DecodeReplAppend(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("future version: %v", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		// Extra bytes between the fields and the (re-sealed) trailer.
		bad := append([]byte(nil), data[:len(data)-4]...)
		bad = append(bad, 0xAA, 0xBB)
		sum := Checksum(bad)
		bad = append(bad, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
		if _, err := DecodeReplAppend(bad); err == nil {
			t.Fatal("trailing bytes decoded")
		}
	})
	t.Run("snapshot CRC mismatch", func(t *testing.T) {
		fr := *base
		fr.SnapCRC = base.SnapCRC + 1
		if _, err := DecodeReplAppend(encodeRepl(t, &fr)); err == nil {
			t.Fatal("snapshot failing its own CRC decoded")
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, err := DecodeReplAppend(nil); err == nil {
			t.Fatal("nil input decoded")
		}
	})
}

// FuzzReplAppend hammers the replication-frame decoder with hostile
// bytes — the body of POST /v1/replica/{topic}/append, which arrives
// over the network from whatever claims to be a peer. Seeds start inside
// the format (valid encodings with and without snapshot, plus targeted
// mutations) and walk outward. Accepted frames must re-encode to bytes
// that decode to the same frame — the fixed-point contract the resync
// path relies on.
func FuzzReplAppend(f *testing.F) {
	for _, fr := range sampleReplFrames() {
		enc := AppendReplAppend(nil, fr)
		f.Add(enc)
		flip := append([]byte(nil), enc...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
		f.Add(enc[:len(enc)*2/3])
	}
	f.Add([]byte("TRICREPL"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeReplAppend(data)
		if err != nil {
			return // rejected cleanly — the common, correct outcome
		}
		out := AppendReplAppend(nil, fr)
		fr2, err := DecodeReplAppend(out)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if out2 := AppendReplAppend(nil, fr2); !bytes.Equal(out, out2) {
			t.Fatalf("encode∘decode is not a fixed point: %d vs %d bytes", len(out), len(out2))
		}
	})
}
