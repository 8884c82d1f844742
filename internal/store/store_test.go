package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"triclust"
	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
)

func openStore(t *testing.T, dir string, fsys fault.FS) *Store {
	t.Helper()
	st, err := Open(dir, Options{}, fsys, t.Logf)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

// tempFiles lists the *.tmp* entries of dir — what an interrupted atomic
// replace leaves behind.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestJournalOptionsDefaults: an unset cadence field means the default,
// never "compact on every batch" — a zero MaxBytes is exceeded by any
// journal.
func TestJournalOptionsDefaults(t *testing.T) {
	for _, tc := range []struct{ in, want Options }{
		{Options{}, Options{Every: 64, MaxBytes: 8 << 20}},
		{Options{Every: 100}, Options{Every: 100, MaxBytes: 8 << 20}},
		{Options{Every: 1, MaxBytes: 64}, Options{Every: 1, MaxBytes: 64}},
	} {
		if got := tc.in.withDefaults(); got != tc.want {
			t.Errorf("%+v.withDefaults() = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestAtomicReplaceTable drives the one atomic-replace primitive through
// every one of its failpoint sites × {error, crash} × every page-cache
// fate: the target path always holds the old bytes or the new bytes —
// never a torn file — and no temp file outlives the failure (an error
// cleans up at once, a crash at the next startup scan). The tombstone
// kind is used so the scan itself is the judge of "not torn".
func TestAtomicReplaceTable(t *testing.T) {
	oldTS := cluster.Tombstone{Epoch: 1, Target: "http://old"}
	newTS := cluster.Tombstone{Epoch: 2, Target: "http://new"}
	const name = "t"

	rec := fault.NewScript()
	if err := openStore(t, t.TempDir(), rec).SetTombstone(name, newTS); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	sites := rec.Sites()
	want := []string{"persist.dir.sync", "tombstone.cleanup", "tombstone.rename", "tombstone.sync", "tombstone.tmp", "tombstone.write"}
	if fmt.Sprint(sites) != fmt.Sprint(want) {
		t.Fatalf("atomic replace crosses sites %v, want %v", sites, want)
	}

	for _, site := range sites {
		for _, crash := range []bool{false, true} {
			for _, tail := range []fault.TailMode{fault.KeepTail, fault.DropTail, fault.TornTail} {
				t.Run(fmt.Sprintf("%s/crash=%v/tail=%d", site, crash, tail), func(t *testing.T) {
					dir := t.TempDir()
					if err := openStore(t, dir, nil).SetTombstone(name, oldTS); err != nil {
						t.Fatal(err)
					}
					injected := errors.New("injected")
					rule := fault.Rule{Site: site, Hit: 1, Tail: tail}
					if crash {
						rule.Crash = true
					} else {
						rule.Err = injected
					}
					st := openStore(t, dir, fault.NewScript(rule))
					var err error
					crashed := false
					func() {
						defer func() {
							if r := recover(); r != nil {
								if _, ok := fault.AsCrash(r); !ok {
									panic(r)
								}
								crashed = true
							}
						}()
						err = st.SetTombstone(name, newTS)
					}()
					if crashed != crash {
						t.Fatalf("crashed = %v, want %v", crashed, crash)
					}
					// The cleanup of an already-renamed temp file is best
					// effort; every other failed step fails the replace.
					if !crash && site != "tombstone.cleanup" && !errors.Is(err, injected) {
						t.Fatalf("replace with %s failing returned %v", site, err)
					}
					if !crash {
						if left := tempFiles(t, dir); len(left) != 0 {
							t.Fatalf("failed replace leaked %v", left)
						}
					}

					// Reboot: the scan is the judge of "old or new, not torn".
					found, err := openStore(t, dir, nil).Scan(false)
					if err != nil {
						t.Fatalf("scan: %v", err)
					}
					if got := found.Tombstones[name]; got != oldTS && got != newTS {
						t.Fatalf("target holds %+v after a failure at %s, want the old or the new marker", got, site)
					}
					if left := tempFiles(t, dir); len(left) != 0 {
						t.Fatalf("temp files survive the startup scan: %v", left)
					}
				})
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func testSnapshot(t *testing.T) []byte {
	t.Helper()
	tp, err := triclust.NewTopic([]triclust.User{{Name: "a", Label: triclust.NoLabel}, {Name: "b", Label: triclust.NoLabel}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tp.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScanClassification: one pass over a directory holding every kind of
// file classifies each by suffix, applies the topic-name check to all of
// them, counts what it refuses, and leaves what is not its own alone.
func TestScanClassification(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap := testSnapshot(t)
	// The header of a version-1 snapshot: magic, version 1, zeros.
	legacy := append([]byte("TRICSNAP\x01\x00"), make([]byte, 10)...)
	st := openStore(t, dir, nil)

	// Served: a snapshot with its (empty) journal, a tombstone, a replica.
	write("good.snap", snap)
	jw, err := journal.Create(fault.OS, filepath.Join(dir, "good.journal"), codec.Checksum(snap))
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()
	if err := st.SetTombstone("gone", cluster.Tombstone{Epoch: 3, Target: "http://b"}); err != nil {
		t.Fatal(err)
	}
	base := []byte("opaque replica base")
	meta := ReplicaMeta{Source: "http://a", Epoch: 1, SnapCRC: codec.Checksum(base), Batches: 4, RandDraws: 40}
	shipped := &codec.ReplAppend{Source: meta.Source, Epoch: meta.Epoch, SnapCRC: meta.SnapCRC,
		BaseBatches: 4, BaseRandDraws: 40, Batches: 4, RandDraws: 40, Snapshot: base}
	installer := openStore(t, dir, nil)
	if _, _, err := installer.ApplyReplica("held", shipped); err != nil {
		t.Fatal(err)
	}
	installer.Close()
	// Refused, one count each.
	write("garbage.snap", []byte("not a snapshot"))
	write("old.snap", legacy)
	write(".hidden.snap", snap)           // invalid topic name
	write("bad name.moved", []byte(`{}`)) // invalid topic name
	write("notarget.moved", []byte(`{"epoch": 2, "target": ""}`))
	write("torn.rmeta", []byte(`{"source": "http://a"`))
	write("orphan.rmeta", []byte(`{"source": "http://a", "snap_crc": 7}`)) // no base, no tail
	// Not the scan's business.
	write("README", []byte("stray"))
	write("notes.tmp1", []byte("someone else's temp file"))
	write("good.journal.corrupt", []byte("an earlier quarantine"))
	// Orphaned temp files of every atomically replaced kind.
	orphans := []string{"good.snap.tmp123", "held.rsnap.tmp4", "held.rmeta.tmp5", "gone.moved.tmp6"}
	for _, file := range orphans {
		write(file, []byte("half-written"))
	}

	found, err := st.Scan(true)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	topics, replicas, tombs := sortedKeys(found.Topics), sortedKeys(st.Replicas()), sortedKeys(found.Tombstones)
	if topics != "good" || replicas != "held" || tombs != "gone" {
		t.Fatalf("scan classified topics=%q replicas=%q tombstones=%q, want good / held / gone", topics, replicas, tombs)
	}
	if rt := found.Topics["good"]; rt.Replayed != 0 || rt.SnapCRC != codec.Checksum(snap) {
		t.Fatalf("good topic restored as %+v", rt)
	}
	if rep := st.replicas["held"]; rep.meta != meta || rep.batches != 4 || rep.draws != 40 {
		t.Fatalf("held replica restored as %+v", rep)
	}
	if ts := found.Tombstones["gone"]; ts.Epoch != 3 || ts.Target != "http://b" {
		t.Fatalf("tombstone restored as %+v", ts)
	}
	if got := st.Quarantined(); got != 7 {
		t.Fatalf("quarantined %d files, want 7", got)
	}

	exists := func(file string) bool {
		_, err := os.Stat(filepath.Join(dir, file))
		return err == nil
	}
	// Only the old-format snapshot is moved aside (its bytes are intact
	// data a re-create must not overwrite); the rest stay where they are.
	if exists("old.snap") || !exists("old.snap.unsupported-version") {
		t.Fatal("the unsupported-version snapshot was not quarantined aside")
	}
	for _, file := range []string{"garbage.snap", "README", "notes.tmp1", "good.journal.corrupt"} {
		if !exists(file) {
			t.Fatalf("the scan removed %s", file)
		}
	}
	for _, file := range orphans {
		if exists(file) {
			t.Fatalf("orphaned temp file %s survived the scan", file)
		}
	}

	// A daemon that does not run replication leaves replica files alone:
	// not loaded, not counted.
	st2 := openStore(t, dir, nil)
	found, err = st2.Scan(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Replicas()) != 0 || st2.Quarantined() != 4 {
		t.Fatalf("scan without replication: %d replicas, %d quarantined; want 0 and 4", len(st2.Replicas()), st2.Quarantined())
	}
}

// TestVersion4DataDirQuarantined: a data dir the last version-4 build left
// behind — the golden topic's snapshot and a journal of batches acked after
// it — is refused whole, not half-read. Both files are moved aside under one
// suffix and counted, no topic is served, and the name can be created anew
// without touching the quarantined bytes: an operator can still upgrade
// them with a build that reads version 4.
func TestVersion4DataDirQuarantined(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_v4.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.snap"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	jw, err := journal.Create(fault.OS, filepath.Join(dir, "t.journal"), codec.Checksum(old))
	if err != nil {
		t.Fatal(err)
	}
	for ts := 2; ts < 4; ts++ {
		rec := &journal.Record{Time: ts, Batches: ts + 1, RandDraws: uint64(10 * ts), Tweets: []triclust.Tweet{
			{Tokens: []string{"love", "prop37"}, User: 0, Time: ts, RetweetOf: -1, Label: triclust.NoLabel},
		}}
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jw.Close()
	acked, err := os.ReadFile(filepath.Join(dir, "t.journal"))
	if err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir, nil)
	found, err := st.Scan(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(found.Topics) != 0 || st.Quarantined() != 2 {
		t.Fatalf("version-4 data dir: topics %q, %d files quarantined; want none and 2", sortedKeys(found.Topics), st.Quarantined())
	}
	kept := func(file string, want []byte) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %v, or not the bytes it was quarantined with", file, err)
		}
	}
	for _, file := range []string{"t.snap", "t.journal"} {
		if _, err := os.Stat(filepath.Join(dir, file)); !os.IsNotExist(err) {
			t.Fatalf("%s still occupies the topic's name: %v", file, err)
		}
	}
	kept("t.snap.unsupported-version", old)
	kept("t.journal.unsupported-version", acked)

	// Re-create the name the way the daemon does: clear what is stale, then
	// save the new topic with its journal.
	st.RemoveStale("t", func(string) *Handle { return nil })
	tp, err := triclust.NewTopic([]triclust.User{{Name: "a", Label: triclust.NoLabel}})
	if err != nil {
		t.Fatal(err)
	}
	h := st.Handle("t", false)
	defer h.Close()
	if current, err := h.Save(tp, func(string) *Handle { return h }); !current || err != nil {
		t.Fatalf("Save: current=%v, %v", current, err)
	}
	kept("t.snap.unsupported-version", old)
	kept("t.journal.unsupported-version", acked)
}

// TestInterruptedVersionQuarantine: a crash in the middle of quarantining
// a topic or a replica whose journal is version 1 moved some of its files
// aside and left the rest. The refused journal goes last, so every such
// state still holds it, and the next scan moves what is left under the same
// suffix: a re-create can then truncate no acked batch. A version 2 journal
// found alone is not this build's to move.
func TestInterruptedVersionQuarantine(t *testing.T) {
	v1 := filepath.Join("..", "..", "testdata", "datadir_v1", "data")
	for _, tc := range []struct {
		name  string
		moved []string // by the interrupted quarantine
		left  []string // for the next scan
	}{
		{"topic", []string{"p2.snap"}, []string{"p2.journal"}},
		{"replica base", []string{"r2.rsnap"}, []string{"r2.rmeta", "r2.rjournal"}},
		{"replica base and meta", []string{"r2.rsnap", "r2.rmeta"}, []string{"r2.rjournal"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			orig := map[string][]byte{}
			for i, file := range append(tc.moved, tc.left...) {
				b, err := os.ReadFile(filepath.Join(v1, file))
				if err != nil {
					t.Fatal(err)
				}
				orig[file] = b
				if i < len(tc.moved) {
					file += ".unsupported-version"
				}
				if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st := openStore(t, dir, nil)
			found, err := st.Scan(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(found.Topics)+len(st.Replicas()) != 0 || st.Quarantined() != len(tc.left) {
				t.Fatalf("%d topics, %d replicas, %d files quarantined; want none, none and %d",
					len(found.Topics), len(st.Replicas()), st.Quarantined(), len(tc.left))
			}
			for file, want := range orig {
				if got, err := os.ReadFile(filepath.Join(dir, file+".unsupported-version")); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s is not under .unsupported-version with its bytes (%v)", file, err)
				}
			}
		})
	}

	dir := t.TempDir()
	jw, err := journal.Create(fault.OS, filepath.Join(dir, "t.journal"), 7)
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()
	st := openStore(t, dir, nil)
	if _, err := st.Scan(true); err != nil || st.Quarantined() != 0 {
		t.Fatalf("a version 2 journal alone: %v, %d files quarantined", err, st.Quarantined())
	}
	if _, err := os.Stat(filepath.Join(dir, "t.journal")); err != nil {
		t.Fatal(err)
	}
}

// TestTombstoneRoundTrip covers the hand-off marker's persistence:
// write → scan → remove, plus rejection of undecodable markers.
func TestTombstoneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	ts := cluster.Tombstone{Epoch: 3, Target: "http://shard-b:8547"}
	if err := st.SetTombstone("prop37", ts); err != nil {
		t.Fatalf("SetTombstone: %v", err)
	}
	got, err := st.readTombstone("prop37")
	if err != nil || got != ts {
		t.Fatalf("round trip %+v (%v), want %+v", got, err, ts)
	}
	if _, err := st.readTombstone("absent"); !os.IsNotExist(err) {
		t.Fatalf("missing tombstone: %v, want not-exist", err)
	}

	// A corrupt marker is skipped by the directory scan but still listed
	// topics survive.
	if err := os.WriteFile(filepath.Join(dir, "bad.moved"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	found, err := st.Scan(false)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(found.Tombstones) != 1 || found.Tombstones["prop37"] != ts {
		t.Fatalf("scan found tombstones %v", found.Tombstones)
	}
	if st.Quarantined() != 1 {
		t.Fatal("corrupt tombstone was not counted")
	}

	if err := st.ClearTombstone("prop37"); err != nil {
		t.Fatal(err)
	}
	if err := st.ClearTombstone("prop37"); err != nil {
		t.Fatalf("second remove: %v", err)
	}
	if _, err := st.readTombstone("prop37"); !os.IsNotExist(err) {
		t.Fatal("tombstone survived removal")
	}
}

// TestLoadTombstonesDamagedMarkers: corrupt JSON, truncated files, wrong
// shapes. Every damaged marker is skipped with a warning (counted, not
// fatal), and intact markers still load.
func TestLoadTombstonesDamagedMarkers(t *testing.T) {
	dir := t.TempDir()
	var warnings []string
	st, err := Open(dir, Options{}, nil, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetTombstone("good", cluster.Tombstone{Epoch: 3, Target: "http://b"}); err != nil {
		t.Fatalf("SetTombstone: %v", err)
	}
	damaged := map[string]string{
		"corrupt.moved":   "{not json at all",
		"truncated.moved": `{"epoch": 7, "targ`,
		"empty.moved":     "",
		"notarget.moved":  `{"epoch": 2, "target": ""}`,
	}
	for name, content := range damaged {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	found, err := st.Scan(false)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(found.Tombstones) != 1 {
		t.Fatalf("loaded %d tombstones (%v), want only the intact one", len(found.Tombstones), found.Tombstones)
	}
	if ts := found.Tombstones["good"]; ts.Epoch != 3 || ts.Target != "http://b" {
		t.Fatalf("good tombstone = %+v", ts)
	}
	if len(warnings) != len(damaged) || st.Quarantined() != len(damaged) {
		t.Fatalf("%d warnings, %d counted for %d damaged markers: %v", len(warnings), st.Quarantined(), len(damaged), warnings)
	}
	for name := range damaged {
		found := false
		for _, w := range warnings {
			found = found || strings.Contains(w, strings.TrimSuffix(name, ".moved"))
		}
		if !found {
			t.Errorf("no warning mentions damaged marker %s: %v", name, warnings)
		}
	}
}

func TestLoadTombstonesMissingDir(t *testing.T) {
	st := &Store{dir: filepath.Join(t.TempDir(), "nope"), fs: fault.OS, logf: t.Logf}
	found, err := st.Scan(false)
	if err == nil && len(found.Tombstones) != 0 {
		t.Fatalf("missing dir produced tombstones: %v", found.Tombstones)
	}
}
