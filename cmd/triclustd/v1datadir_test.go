package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
)

// v1DataDir is a data dir written by a build whose journals and replica
// frames were version 1: a served topic with three acked batches in its
// journal, and a cold replica with a three-record tail (see its README).
const v1DataDir = "../../testdata/datadir_v1"

// v1Want is what that build served (want.json beside the data).
type v1Want struct {
	Primary            string `json:"primary"`
	PrimaryETag        string `json:"primary_etag"`
	PrimarySnapshotCRC uint32 `json:"primary_snapshot_crc"`
	Replica            string `json:"replica"`
	ReplicaPrimaryETag string `json:"replica_primary_etag"`
}

// refusePeers fails every inter-shard request at once: the ring's peer
// never exists, and no request leaves the process.
type refusePeers struct{}

func (refusePeers) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("the peer is down")
}

// bootV1DataDir starts the fixture's shard (self, of self and peer) on a
// copy of the data dir, without its background loops.
func bootV1DataDir(t *testing.T) (*server, string, v1Want) {
	t.Helper()
	var want v1Want
	raw, err := os.ReadFile(filepath.Join(v1DataDir, "want.json"))
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(v1DataDir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(v1DataDir, "data", e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cc, err := newClusterConfig("http://self.test:8547", "http://self.test:8547,http://peer.test:8547", 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(dir, serverOptions{journal: store.Options{Every: 64}, cluster: cc,
		repl: &replOptions{Factor: 2}, peer: peerOptions{Transport: refusePeers{}}}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, dir, want
}

func serveGet(t *testing.T, s *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec
}

// loadJournal reads a journal file of the data dir.
func loadJournal(t *testing.T, path string) *journal.Journal {
	t.Helper()
	j, err := journal.Load(fault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Torn {
		t.Fatalf("%s has a torn tail", filepath.Base(path))
	}
	return j
}

// TestVersion1DataDir: a data dir an older build left, with version 1
// journals, loses nothing. The served topic replays its three acked
// batches to the ETag and the snapshot that build served, and its journal
// is version 2 from the start on (the replay compacts). The cold replica's
// version 1 tail is left as it is: it still promotes with every batch; an
// append to it answers replica_out_of_sync, so the primary re-bases it
// with a full ship, after which its tail is version 2 and takes appends.
// No journal ever holds records of both versions.
func TestVersion1DataDir(t *testing.T) {
	s, dir, want := bootV1DataDir(t)
	if got := serveGet(t, s, "/v1/topics/"+want.Primary+"/users/1").Header().Get("Etag"); got != want.PrimaryETag {
		t.Fatalf("served topic answers ETag %s, the version 1 build answered %s", got, want.PrimaryETag)
	}
	if got := codec.Checksum(serveGet(t, s, "/v1/topics/"+want.Primary+"/snapshot").Body.Bytes()); got != want.PrimarySnapshotCRC {
		t.Fatalf("served topic's snapshot has CRC %08x, the version 1 build's had %08x", got, want.PrimarySnapshotCRC)
	}
	if j := loadJournal(t, filepath.Join(dir, want.Primary+".journal")); j.Version != journal.Version || len(j.Records) != 0 {
		t.Fatalf("served topic's journal after start: version %d, %d records; want a compacted version %d journal",
			j.Version, len(j.Records), journal.Version)
	}
	v1Tail, err := os.ReadFile(filepath.Join(dir, want.Replica+".rjournal"))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(filepath.Join(v1DataDir, "data", want.Replica+".rjournal"))
	if err != nil || !bytes.Equal(v1Tail, orig) {
		t.Fatalf("start rewrote the replica's version 1 tail (%v)", err)
	}
	promotedETag := strings.Replace(want.ReplicaPrimaryETag, `-e0"`, `-e1"`, 1)

	t.Run("promoted", func(t *testing.T) {
		s, dir, _ := bootV1DataDir(t)
		rep := s.repl.replicaFor(want.Replica, false)
		rep.mu.Lock()
		err := s.promoteReplica(want.Replica, rep)
		rep.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if got := serveGet(t, s, "/v1/topics/"+want.Replica+"/users/1").Header().Get("Etag"); got != promotedETag {
			t.Fatalf("promoted replica answers ETag %s, want %s (its primary's, one epoch on)", got, promotedETag)
		}
		if j := loadJournal(t, filepath.Join(dir, want.Replica+".journal")); j.Version != journal.Version {
			t.Fatalf("promoted topic's journal is version %d", j.Version)
		}
		if _, err := os.Stat(filepath.Join(dir, want.Replica+".rjournal")); !os.IsNotExist(err) {
			t.Fatalf("replica tail still on disk after promotion: %v", err)
		}
	})

	t.Run("re-based", func(t *testing.T) {
		s, dir, _ := bootV1DataDir(t)
		rep := s.repl.replicaFor(want.Replica, false)
		if !rep.OldTail {
			t.Fatal("the replica's version 1 tail is not marked")
		}
		// The primary's next batch, computed on the replica as it would be
		// promoted: day 5 after the four it holds.
		tp, err := s.store.LoadReplica(want.Replica, &rep.Replica)
		if err != nil {
			t.Fatal(err)
		}
		day5 := []triclust.Tweet{{Text: "still for the #prop37 labels", User: 2, Time: 5, RetweetOf: -1, Label: triclust.NoLabel}}
		if _, err := tp.Process(5, day5); err != nil {
			t.Fatal(err)
		}
		batches, draws := tp.StreamPos()
		next, err := journal.EncodeFrame(&journal.Record{Time: 5, Tweets: day5, Batches: batches, RandDraws: draws})
		if err != nil {
			t.Fatal(err)
		}
		incremental := &codec.ReplAppend{Source: rep.Meta.Source, Epoch: rep.Meta.Epoch, SnapCRC: rep.Meta.SnapCRC,
			Batches: uint64(batches), RandDraws: draws, Tail: next}
		if code, _, ecode, _ := postReplFrame(t, s, want.Replica, incremental); code != http.StatusConflict || ecode != codeReplicaOutOfSync {
			t.Fatalf("append to a version 1 tail: %d %q, want 409 %q", code, ecode, codeReplicaOutOfSync)
		}
		if now, err := os.ReadFile(filepath.Join(dir, want.Replica+".rjournal")); err != nil || !bytes.Equal(now, v1Tail) {
			t.Fatalf("a refused append changed the version 1 tail (%v)", err)
		}

		// The full ship the primary answers that with: the base and the
		// records extending it, now as version 2 frames.
		base, err := os.ReadFile(filepath.Join(dir, want.Replica+".rsnap"))
		if err != nil {
			t.Fatal(err)
		}
		old := loadJournal(t, filepath.Join(dir, want.Replica+".rjournal"))
		var tail []byte
		for _, rec := range old.Records {
			f, err := journal.EncodeFrame(rec)
			if err != nil {
				t.Fatal(err)
			}
			tail = append(tail, f...)
		}
		last := old.Records[len(old.Records)-1]
		full := &codec.ReplAppend{Source: rep.Meta.Source, Epoch: rep.Meta.Epoch, SnapCRC: codec.Checksum(base), Snapshot: base,
			BaseBatches: uint64(rep.Meta.Batches), BaseRandDraws: rep.Meta.RandDraws,
			Batches: uint64(last.Batches), RandDraws: last.RandDraws, Tail: tail}
		if code, ack, ecode, _ := postReplFrame(t, s, want.Replica, full); code != http.StatusOK || ack.Batches != last.Batches {
			t.Fatalf("full ship: %d %q, replica at batch %d", code, ecode, ack.Batches)
		}
		if code, ack, ecode, _ := postReplFrame(t, s, want.Replica, incremental); code != http.StatusOK || ack.Batches != batches {
			t.Fatalf("append after the full ship: %d %q, replica at batch %d", code, ecode, ack.Batches)
		}
		j := loadJournal(t, filepath.Join(dir, want.Replica+".rjournal"))
		if j.Version != journal.Version || len(j.Records) != len(old.Records)+1 {
			t.Fatalf("re-based tail: version %d, %d records", j.Version, len(j.Records))
		}

		rep.mu.Lock()
		err = s.promoteReplica(want.Replica, rep)
		rep.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		tp.SetEpoch(rep.Meta.Epoch + 1)
		if got, tag := serveGet(t, s, "/v1/topics/"+want.Replica+"/users/1").Header().Get("Etag"), string(appendETag(nil, tp.ReadView())); got != tag {
			t.Fatalf("re-based replica promotes to ETag %s, want %s", got, tag)
		}
	})
}
