package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"triclust/internal/fault"
	"triclust/internal/tgraph"
)

func testRecords() []*Record {
	return []*Record{
		{
			Time: 3,
			Tweets: []tgraph.Tweet{
				{Text: "love the #prop37 win", User: 0, Time: 3, RetweetOf: -1, Label: -1},
				{Tokens: []string{"no", "on", "37"}, User: 1, Time: 3, RetweetOf: -1, Label: 1},
				{Tokens: []string{}, User: 2, Time: 3, RetweetOf: 0, Label: -1},
			},
			Batches:   1,
			RandDraws: 12345,
		},
		{
			Time:      4,
			Tweets:    []tgraph.Tweet{{Text: "still here", User: 2, Time: 4, RetweetOf: -1, Label: -1}},
			Batches:   2,
			RandDraws: 67890,
		},
	}
}

func writeTestJournal(t *testing.T, path string, snapCRC uint32, recs []*Record) {
	t.Helper()
	w, err := Create(fault.OS, path, snapCRC)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topic.journal")
	recs := testRecords()
	writeTestJournal(t, path, 0xDEADBEEF, recs)

	j, err := Load(fault.OS, path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if j.SnapCRC != 0xDEADBEEF {
		t.Fatalf("SnapCRC = %#x, want 0xDEADBEEF", j.SnapCRC)
	}
	if j.Torn {
		t.Fatal("clean journal reported torn")
	}
	if !reflect.DeepEqual(j.Records, recs) {
		t.Fatalf("records differ:\ngot  %+v\nwant %+v", j.Records, recs)
	}
	// The nil-vs-empty Tokens distinction must survive: nil means
	// "tokenize the text", empty means "tokenized, no features".
	if j.Records[0].Tweets[0].Tokens != nil {
		t.Fatal("nil Tokens decoded as non-nil")
	}
	if j.Records[0].Tweets[2].Tokens == nil {
		t.Fatal("empty Tokens decoded as nil")
	}
}

func TestJournalEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	writeTestJournal(t, path, 7, nil)
	j, err := Load(fault.OS, path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(j.Records) != 0 || j.Torn || j.SnapCRC != 7 {
		t.Fatalf("empty journal loaded as %+v", j)
	}
}

// TestJournalTornTail simulates a crash mid-append: every strict prefix
// of the final record must load as the intact prefix with Torn set.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	recs := testRecords()
	writeTestJournal(t, full, 1, recs)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	one := filepath.Join(dir, "one.journal")
	writeTestJournal(t, one, 1, recs[:1])
	oneLen, err := os.Stat(one)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int(oneLen.Size()) + 1; cut < len(data); cut += 7 {
		torn := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Load(fault.OS, torn)
		if err != nil {
			t.Fatalf("cut %d: Load: %v", cut, err)
		}
		if !j.Torn {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if len(j.Records) != 1 || !reflect.DeepEqual(j.Records[0], recs[0]) {
			t.Fatalf("cut %d: intact prefix not recovered (%d records)", cut, len(j.Records))
		}
	}
}

// TestJournalBitFlips mirrors the codec corruption suite: flipping any
// byte must never decode into different records without detection — it
// either truncates the record stream (torn semantics) or rejects the
// header.
func TestJournalBitFlips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.journal")
	recs := testRecords()
	writeTestJournal(t, path, 42, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		flip := filepath.Join(dir, "flip.journal")
		if err := os.WriteFile(flip, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Load(fault.OS, flip)
		if off < 18 {
			// Header corruption must be rejected outright.
			if err == nil {
				t.Fatalf("offset %d: corrupted header accepted", off)
			}
			continue
		}
		if err != nil {
			t.Fatalf("offset %d: record corruption should truncate, got %v", off, err)
		}
		// A flipped record byte must drop that record (and everything
		// after it); earlier records stay intact.
		if !j.Torn {
			t.Fatalf("offset %d: corruption not detected", off)
		}
		for i, r := range j.Records {
			if !reflect.DeepEqual(r, recs[i]) {
				t.Fatalf("offset %d: surviving record %d differs", off, i)
			}
		}
	}
}

func TestJournalHeaderRejections(t *testing.T) {
	dir := t.TempDir()

	bad := filepath.Join(dir, "bad.journal")
	if err := os.WriteFile(bad, []byte("NOTAJRNLxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(fault.OS, bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}

	short := filepath.Join(dir, "short.journal")
	if err := os.WriteFile(short, []byte("TRICJRNL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(fault.OS, short); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header: got %v", err)
	}
}

// TestJournalAppendIsOBatch pins the whole point of the journal: bytes
// appended per batch depend on the batch, not on how much history the
// topic has accumulated. Identical batches appended late in a long
// stream must cost exactly as many bytes as the first one. A record's
// time and fingerprint are varints, whose width is the batch's own
// content, so the stream keeps them at one width (4, 4 and 5 bytes).
func TestJournalAppendIsOBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	w, err := Create(fault.OS, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := testRecords()[0]
	var first int64
	prev := w.Size()
	for i := 0; i < 200; i++ {
		rec.Time = 1<<20 + i
		rec.Batches = 1<<20 + i
		rec.RandDraws = uint64(1<<30 + 1000*i)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		delta := w.Size() - prev
		prev = w.Size()
		if i == 0 {
			first = delta
			continue
		}
		if delta != first {
			t.Fatalf("append %d wrote %d bytes, first wrote %d — per-batch cost not O(batch)", i, delta, first)
		}
	}
}

// TestJournalRotate covers the in-place compaction hook: after Rotate the
// journal is empty, names the new snapshot, keeps accepting appends on the
// same descriptor, and none of the pre-rotation records survive.
func TestJournalRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topic.journal")
	recs := testRecords()
	w, err := Create(fault.OS, path, 0x1111)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer w.Close()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	before := w.Size()

	if err := w.Rotate(0x2222); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if w.Size() >= before {
		t.Fatalf("rotation did not shrink the journal: %d -> %d", before, w.Size())
	}
	j, err := Load(fault.OS, path)
	if err != nil {
		t.Fatalf("Load after rotate: %v", err)
	}
	if j.SnapCRC != 0x2222 || len(j.Records) != 0 || j.Torn {
		t.Fatalf("rotated journal: crc=%#x records=%d torn=%v", j.SnapCRC, len(j.Records), j.Torn)
	}

	// The same writer keeps appending after rotation, and only
	// post-rotation records are visible.
	if err := w.Append(recs[1]); err != nil {
		t.Fatalf("Append after rotate: %v", err)
	}
	j, err = Load(fault.OS, path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(j.Records) != 1 || !reflect.DeepEqual(j.Records[0], recs[1]) {
		t.Fatalf("post-rotation journal holds %d records", len(j.Records))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(0x3333); err == nil {
		t.Fatal("Rotate on a closed writer succeeded")
	}
}
