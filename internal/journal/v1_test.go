package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// TestVersion1Records: Load reads a version 1 file's records, with both
// token-list states, and refuses one that lists tokens on a tweet it
// flags as untokenized. The old decoder accepted that record and dropped
// its tokens, so the record did not re-encode to itself; now it is the
// torn tail, and the records before it stand.
func TestVersion1Records(t *testing.T) {
	raw := []v1Tweet{{text: "love prop37"}}
	tokenized := []v1Tweet{{hasTokens: 1, tokens: []string{"no", "on", "37"}}}
	empty := []v1Tweet{{hasTokens: 1}}
	dropped := []v1Tweet{{text: "love", tokens: []string{"prop37", "win"}}}
	for _, tc := range []struct {
		name    string
		records [][]v1Tweet
		want    [][]string // each intact record's one token list
	}{
		{"raw text", [][]v1Tweet{raw}, [][]string{nil}},
		{"tokens", [][]v1Tweet{tokenized}, [][]string{{"no", "on", "37"}}},
		{"explicit empty tokens", [][]v1Tweet{empty}, [][]string{{}}},
		{"tokens on an untokenized tweet", [][]v1Tweet{raw, dropped, tokenized}, [][]string{nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.journal")
			if err := os.WriteFile(path, v1File(9, tc.records...), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := Load(fault.OS, path)
			if err != nil {
				t.Fatal(err)
			}
			if j.Version != 1 || j.SnapCRC != 9 {
				t.Fatalf("header read as version %d, snapshot %d", j.Version, j.SnapCRC)
			}
			if torn := len(tc.want) < len(tc.records); j.Torn != torn || len(j.Records) != len(tc.want) {
				t.Fatalf("loaded %d records (torn %v), want %d (torn %v)", len(j.Records), j.Torn, len(tc.want), torn)
			}
			for i, rec := range j.Records {
				if tokens := rec.Tweets[0].Tokens; !reflect.DeepEqual(tokens, tc.want[i]) || (tokens == nil) != (tc.want[i] == nil) {
					t.Fatalf("record %d: tokens %#v, want %#v", i, tokens, tc.want[i])
				}
				if rec.Time != i+3 || rec.Batches != i+1 || rec.RandDraws != uint64(100*(i+1)) || rec.Tweets[0].RetweetOf != -1 {
					t.Fatalf("record %d read as %+v", i, rec)
				}
			}
		})
	}
}

// TestVersion1JournalLoadsAndStaysReadOnly: the journal a version 1
// build left loads whole, each record survives a version 2 round trip,
// and nothing appends to the file: Open refuses it and leaves its bytes
// alone, so no journal ever holds records of both versions.
func TestVersion1JournalLoadsAndStaysReadOnly(t *testing.T) {
	orig, err := os.ReadFile(v1Journal)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.journal")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Load(fault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Version != 1 || j.Torn || len(j.Records) != 3 || j.Size != int64(len(orig)) {
		t.Fatalf("version %d, torn %v, %d records, size %d", j.Version, j.Torn, len(j.Records), j.Size)
	}
	var tokenShapes [3]int // nil, empty, listed
	var v2 int
	for i, rec := range j.Records {
		if rec.Batches != i+1 {
			t.Fatalf("record %d at batch %d", i, rec.Batches)
		}
		for _, tw := range rec.Tweets {
			switch {
			case tw.Tokens == nil:
				tokenShapes[0]++
			case len(tw.Tokens) == 0:
				tokenShapes[1]++
			default:
				tokenShapes[2]++
			}
		}
		frame, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, _, ok := DecodeFrame(frame)
		if !ok || !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d does not survive a version 2 round trip", i)
		}
		v2 += len(frame)
	}
	if tokenShapes[0] == 0 || tokenShapes[1] == 0 || tokenShapes[2] == 0 {
		t.Fatalf("fixture tweets by token list (nil, empty, listed): %v; want each shape", tokenShapes)
	}
	t.Logf("records: %d bytes as version 1, %d as version 2", len(orig)-18, v2)

	if _, _, err := Open(fault.OS, path); !errors.Is(err, ErrVersion) {
		t.Fatalf("Open of a version 1 journal: %v, want ErrVersion", err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, orig) {
		t.Fatalf("Open changed the version 1 file (%v)", err)
	}
	// Create and Rotate write the current version, so a writer's file
	// holds only current records.
	w, err := Create(fault.OS, path, j.SnapCRC)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rec := range j.Records {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j2, err := Load(fault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Version != Version || !reflect.DeepEqual(j2.Records, j.Records) {
		t.Fatalf("rewritten journal: version %d, %d records", j2.Version, len(j2.Records))
	}
}

// TestHeaderVersions: a header names version 1 or 2; 0 and anything past
// this build's version are version skew.
func TestHeaderVersions(t *testing.T) {
	for v, ok := range map[uint16]bool{0: false, 1: true, Version: true, Version + 1: false} {
		hdr := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(append([]byte(nil), magic[:]...), v), 5)
		hdr = binary.LittleEndian.AppendUint32(hdr, codec.Checksum(hdr))
		got, crc, rest, err := decodeHeader(hdr)
		if ok != (err == nil) || ok && (got != v || crc != 5 || len(rest) != 0) || !ok && !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: read as %d, %d, err %v", v, got, crc, err)
		}
	}
}
