package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"triclust/internal/fault"
)

// TestFrameRoundTrip: EncodeFrame/DecodeFrame are inverses, and the
// encoded bytes are exactly what Append writes — so a frame shipped to a
// replica and fsynced there is bit-identical to the primary's journal
// record.
func TestFrameRoundTrip(t *testing.T) {
	for i, rec := range testRecords() {
		frame, err := EncodeFrame(rec)
		if err != nil {
			t.Fatalf("EncodeFrame(%d): %v", i, err)
		}
		got, n, ok := DecodeFrame(frame)
		if !ok {
			t.Fatalf("DecodeFrame(%d) rejected a fresh encoding", i)
		}
		if n != len(frame) {
			t.Fatalf("DecodeFrame(%d) consumed %d of %d bytes", i, n, len(frame))
		}
		if cap(frame) != len(frame) {
			t.Fatalf("EncodeFrame(%d) left a %d-byte frame in a %d-byte buffer, want it sized exactly", i, len(frame), cap(frame))
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
	}
}

func TestFrameMatchesAppendBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.journal")
	recs := testRecords()
	writeTestJournal(t, path, 7, recs)
	appended, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var framed bytes.Buffer
	for _, r := range recs {
		frame, err := EncodeFrame(r)
		if err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
		framed.Write(frame)
	}
	if !bytes.Equal(appended[18:], framed.Bytes()) { // 18 = journal header
		t.Fatal("Append wrote different bytes than EncodeFrame for the same records")
	}
}

func TestDecodeFrameRejectsDamage(t *testing.T) {
	frame, err := EncodeFrame(testRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := DecodeFrame(frame[:len(frame)-1]); ok {
		t.Fatal("truncated frame decoded")
	}
	for _, pos := range []int{0, len(frame) / 2, len(frame) - 1} {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x40
		if _, _, ok := DecodeFrame(bad); ok {
			t.Fatalf("bit flip at %d decoded", pos)
		}
	}
	// Two frames back to back: the first decode reports its own length so
	// a caller can walk a shipped tail frame by frame.
	second, err := EncodeFrame(testRecords()[1])
	if err != nil {
		t.Fatal(err)
	}
	tail := append(append([]byte(nil), frame...), second...)
	got1, n1, ok := DecodeFrame(tail)
	if !ok {
		t.Fatal("first of two frames rejected")
	}
	if n1 != len(frame) {
		t.Fatalf("first frame length %d, want %d", n1, len(frame))
	}
	got2, n2, ok := DecodeFrame(tail[n1:])
	if !ok {
		t.Fatal("second of two frames rejected")
	}
	if n1+n2 != len(tail) {
		t.Fatalf("frames consumed %d of %d bytes", n1+n2, len(tail))
	}
	want := testRecords()
	if !reflect.DeepEqual(got1, want[0]) || !reflect.DeepEqual(got2, want[1]) {
		t.Fatal("walked frames do not match the encoded records")
	}
}

// TestOpenResumesAfterLastIntactRecord: Open positions the writer after
// the last intact record — a torn tail (crash mid-append, or a replica
// whose fsync failed partway) is cut, and subsequent appends extend the
// journal cleanly.
func TestOpenResumesAfterLastIntactRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.journal")
	recs := testRecords()
	writeTestJournal(t, path, 42, recs[:1])

	// Tear the tail: append half of the second record's frame.
	frame, err := EncodeFrame(recs[1])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, j, err := Open(fault.OS, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !j.Torn || len(j.Records) != 1 {
		t.Fatalf("Open saw torn=%v records=%d, want torn with 1 intact", j.Torn, len(j.Records))
	}
	if err := w.AppendFrames(frame); err != nil {
		t.Fatalf("AppendFrames after Open: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(fault.OS, path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if reloaded.Torn {
		t.Fatal("journal still torn after Open truncated the tail")
	}
	if !reflect.DeepEqual(reloaded.Records, recs) {
		t.Fatalf("records after torn-tail recovery = %d, want the full stream", len(reloaded.Records))
	}
}

// TestLoadSizeIsConsumedOffset pins Journal.Size — the offset Open
// resumes appending at — to the bytes actually decoded: the whole file
// when intact, the end of the last intact record when torn.
func TestLoadSizeIsConsumedOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.journal")
	recs := testRecords()
	writeTestJournal(t, path, 42, recs)

	j, err := Load(fault.OS, path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Torn || j.Size != fi.Size() {
		t.Fatalf("intact journal: torn=%v Size=%d, want clean %d (the file size)", j.Torn, j.Size, fi.Size())
	}

	intact := j.Size
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{recBatch, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if j, err = Load(fault.OS, path); err != nil {
		t.Fatalf("Load torn: %v", err)
	}
	if !j.Torn || j.Size != intact {
		t.Fatalf("torn journal: torn=%v Size=%d, want torn at %d (end of last intact record)", j.Torn, j.Size, intact)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, _, err := Open(fault.OS, filepath.Join(t.TempDir(), "absent.journal")); err == nil {
		t.Fatal("Open of a missing journal succeeded")
	}
}

// TestTruncateTailDiscardsFailedAppend: after a failed append the file
// may hold a torn frame past the writer's acked size; TruncateTail
// restores the exact pre-append state, leaving no ambiguous tail.
func TestTruncateTailDiscardsFailedAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.journal")
	recs := testRecords()
	w, err := Create(fault.OS, path, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append landing on disk without the writer acking it.
	frame, err := EncodeFrame(recs[1])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := w.TruncateTail(); err != nil {
		t.Fatalf("TruncateTail: %v", err)
	}
	// The writer continues from the truncated position.
	if err := w.Append(recs[1]); err != nil {
		t.Fatalf("Append after TruncateTail: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := Load(fault.OS, path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if j.Torn || len(j.Records) != 2 {
		t.Fatalf("after truncate+retry: torn=%v records=%d, want clean 2", j.Torn, len(j.Records))
	}
	if !reflect.DeepEqual(j.Records, recs) {
		t.Fatal("records after truncate+retry do not match the stream")
	}
}

func TestAppendFramesMultipleAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.journal")
	recs := testRecords()
	w, err := Create(fault.OS, path, 5)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, r := range recs {
		frame, err := EncodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, frame...)
	}
	if err := w.AppendFrames(all); err != nil {
		t.Fatalf("AppendFrames: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := Load(fault.OS, path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(j.Records) != len(recs) || !reflect.DeepEqual(j.Records, recs) {
		t.Fatalf("multi-frame append loaded %d records, want %d matching", len(j.Records), len(recs))
	}
}
