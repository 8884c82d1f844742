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

// seedJournalBytes builds a well-formed journal in a scratch file and
// returns its bytes, so the fuzzer starts from valid framing.
func seedJournalBytes(f *testing.F, snapCRC uint32, recs []*Record) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.journal")
	w, err := Create(fault.OS, path, snapCRC)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzJournalLoad feeds hostile bytes to the journal loader — the exact
// surface a corrupted disk or crafted data directory presents at daemon
// startup and at cluster hand-off resume. Load must never panic; whatever
// it accepts must round-trip: re-appending the decoded records to a fresh
// journal and loading that must reproduce them exactly.
func FuzzJournalLoad(f *testing.F) {
	full := seedJournalBytes(f, 0xCAFEBABE, testRecords())
	f.Add(full)
	// A truncation (torn tail), a bit-flip, and a bare header as
	// targeted hostile seeds.
	f.Add(full[:len(full)-3])
	flip := append([]byte(nil), full...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	f.Add(seedJournalBytes(f, 0, nil))
	f.Add([]byte("TRICJRNL"))
	f.Add([]byte{})
	// Rotate-interrupted shapes: a crash mid-Rotate leaves either a
	// truncated header (the re-header write died half-way) or a fresh
	// header sitting on top of stale record bytes a lost truncate should
	// have removed. Both must resolve to quarantine or a clean prefix,
	// never a misparse.
	f.Add(full[:10])
	rehdr := seedJournalBytes(f, 0xFEEDF00D, nil)
	f.Add(append(append([]byte(nil), rehdr...), full[18:]...))
	f.Add(append(append([]byte(nil), rehdr...), full[18:len(full)-5]...))
	// Version 1 files, which the loader refuses: the journal an older
	// build left, and a record listing tokens on a tweet it flags as
	// untokenized.
	if v1, err := os.ReadFile(v1Journal); err == nil {
		f.Add(v1)
	}
	f.Add(v1File(3, []v1Tweet{{text: "love", tokens: []string{"prop37", "win"}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Load(fault.OS, path)
		if intact := len(data) >= 18 && bytes.Equal(data[:8], magic[:]) &&
			codec.Checksum(data[:14]) == binary.LittleEndian.Uint32(data[14:18]); intact &&
			binary.LittleEndian.Uint16(data[8:10]) != Version && !errors.Is(err, ErrVersion) {
			t.Fatalf("intact header of version %d: %v, want ErrVersion", binary.LittleEndian.Uint16(data[8:10]), err)
		}
		if err != nil {
			return // undecodable header — quarantined by callers
		}
		// Anything Load accepted must survive a re-append round trip
		// bit-for-bit: the records a journal yields are the records a
		// journal written from them yields again.
		rt := filepath.Join(dir, "roundtrip.journal")
		w, err := Create(fault.OS, rt, j.SnapCRC)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range j.Records {
			if err := w.Append(rec); err != nil {
				t.Fatalf("decoded record does not re-append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := Load(fault.OS, rt)
		if err != nil {
			t.Fatalf("re-written journal does not load: %v", err)
		}
		if j2.Torn {
			t.Fatal("re-written journal reports a torn tail")
		}
		if j2.SnapCRC != j.SnapCRC || len(j2.Records) != len(j.Records) {
			t.Fatalf("round trip: crc %#x→%#x, %d→%d records",
				j.SnapCRC, j2.SnapCRC, len(j.Records), len(j2.Records))
		}
		if len(j.Records) > 0 && !reflect.DeepEqual(j.Records, j2.Records) {
			t.Fatal("round trip altered records")
		}
	})
}
