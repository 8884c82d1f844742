package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"triclust/internal/codec"
	"triclust/internal/fault"
)

// v1Journal is the primary topic's journal in the data dir a version 1
// build left (testdata/datadir_v1): three acked batches.
const v1Journal = "../../testdata/datadir_v1/data/p2.journal"

// v1Tweet is one tweet in the version 1 layout: 8-byte integers and
// lengths, and a has-tokens byte before the token count.
type v1Tweet struct {
	text      string
	hasTokens byte
	tokens    []string
}

// v1File frames one batch record per tweet list in a version 1 journal.
func v1File(snapCRC uint32, records ...[]v1Tweet) []byte {
	le := binary.LittleEndian
	out := le.AppendUint32(le.AppendUint16(append([]byte(nil), magic[:]...), 1), snapCRC)
	out = le.AppendUint32(out, codec.Checksum(out))
	for i, tweets := range records {
		p := le.AppendUint64(nil, uint64(i+3)) // time
		p = le.AppendUint64(p, uint64(len(tweets)))
		for _, tw := range tweets {
			p = append(le.AppendUint64(p, uint64(len(tw.text))), tw.text...)
			p = le.AppendUint64(append(p, tw.hasTokens), uint64(len(tw.tokens)))
			for _, s := range tw.tokens {
				p = append(le.AppendUint64(p, uint64(len(s))), s...)
			}
			for _, v := range []int64{0, int64(i + 3), -1, -1} { // user, time, retweetOf, label
				p = le.AppendUint64(p, uint64(v))
			}
		}
		p = le.AppendUint64(le.AppendUint64(p, uint64(i+1)), uint64(100*(i+1))) // batches, draws
		frame := append(le.AppendUint32([]byte{recBatch}, uint32(len(p))), p...)
		out = le.AppendUint32(append(out, frame...), codec.Checksum(frame))
	}
	return out
}

// TestVersion1Records: a version 1 file is refused whole, whatever its
// records hold — raw text, tokens, an explicit empty token list, tokens
// on a tweet it flags as untokenized, or the journal an older build left.
// Load and Open both answer ErrVersion without reading a record, so no
// version 1 payload reaches the decoder (its 8-byte integers would not be
// read as varints), and the file keeps its bytes for the quarantine.
func TestVersion1Records(t *testing.T) {
	fixture, err := os.ReadFile(v1Journal)
	if err != nil {
		t.Fatal(err)
	}
	raw := []v1Tweet{{text: "love prop37"}}
	tokenized := []v1Tweet{{hasTokens: 1, tokens: []string{"no", "on", "37"}}}
	empty := []v1Tweet{{hasTokens: 1}}
	dropped := []v1Tweet{{text: "love", tokens: []string{"prop37", "win"}}}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"raw text", v1File(9, raw)},
		{"tokens", v1File(9, tokenized)},
		{"explicit empty tokens", v1File(9, empty)},
		{"tokens on an untokenized tweet", v1File(9, raw, dropped, tokenized)},
		{"p2.journal fixture", fixture},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.journal")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			if j, err := Load(fault.OS, path); !errors.Is(err, ErrVersion) {
				t.Fatalf("Load of a version 1 journal: %+v, %v; want ErrVersion", j, err)
			}
			if w, _, err := Open(fault.OS, path); !errors.Is(err, ErrVersion) {
				if w != nil {
					w.Close()
				}
				t.Fatalf("Open of a version 1 journal: %v, want ErrVersion", err)
			}
			if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, tc.file) {
				t.Fatalf("refusing the version 1 file changed it (%v)", err)
			}
		})
	}
}

// TestHeaderVersions: Load and Open read a version 2 header only; 0, 1 and
// anything past this build's version are ErrVersion, from both.
func TestHeaderVersions(t *testing.T) {
	for _, v := range []uint16{0, 1, Version, Version + 1} {
		hdr := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(append([]byte(nil), magic[:]...), v), 5)
		hdr = binary.LittleEndian.AppendUint32(hdr, codec.Checksum(hdr))
		path := filepath.Join(t.TempDir(), "t.journal")
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Load(fault.OS, path)
		w, oj, oerr := Open(fault.OS, path)
		if w != nil {
			w.Close()
		}
		if v == Version {
			if err != nil || oerr != nil || j.SnapCRC != 5 || len(j.Records) != 0 || oj.SnapCRC != 5 {
				t.Fatalf("version %d: Load %+v, %v; Open %v", v, j, err, oerr)
			}
		} else if !errors.Is(err, ErrVersion) || !errors.Is(oerr, ErrVersion) {
			t.Fatalf("version %d: Load %v, Open %v; want ErrVersion from both", v, err, oerr)
		}
	}
}
