package main

// The fault matrix: a rule-less fault.Script counts each failpoint site a
// clean run of a plane crosses, then every site is faulted at every hit it
// had — crashed (tail=0, 1, 2: the unsynced page cache kept, dropped or
// torn) and rebooted over the disk image, or failed (error; a .write site
// writes a short prefix first), alone and followed by a second failure at
// each site its request went on to cross (error+<site>: an append and its
// truncate, a rotate and its re-create). A new write site joins by being
// crossed, and matrixSites fails tier-1 if one covered today is lost.
//
// The planes: batch commit and compaction on one shard, a vocabulary
// warm-up, the restart (of a journal tail, a compacted journal, a parked
// hand-off, a replica), a cluster move, and a replica install. One oracle
// judges every case: write's checks on every write; after a crash acked ≤
// recovered ≤ attempted at the control's bytes, twice over, with no
// *.tmp* file left; a failed read stops start-up, naming the file, and an
// error quarantines nothing; every stream finishes from where it stood,
// byte-identical to its uninterrupted control; a move leaves one holder at
// the pre-move position, and a parked hand-off resumes.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
)

const (
	mxTopic = "mx"
	mxDays  = 7
	mxBatch = "/v1/topics/" + mxTopic + "/batches"
)

func matrixJournalOpts() store.Options {
	// Every:3 puts compactions at batches 3 and 6, so the 7-day stream
	// crosses append-only stretches and two snapshot+rotate points.
	return store.Options{Every: 3, MaxBytes: 1 << 40}
}

// engineState captures a topic's externally observable durable identity:
// stream position plus full snapshot bytes.
type engineState struct {
	batches int
	draws   uint64
	snap    []byte
}

func captureTopic(t *testing.T, s *server, name string) *engineState {
	t.Helper()
	s.mu.RLock()
	tp := s.topics[name]
	s.mu.RUnlock()
	if tp == nil {
		return nil
	}
	st := &engineState{}
	st.batches, st.draws = tp.eng.StreamPos()
	var buf bytes.Buffer
	if err := tp.eng.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot %q: %v", name, err)
	}
	st.snap = buf.Bytes()
	return st
}

func (e *engineState) equal(o *engineState) bool {
	return e != nil && o != nil && e.batches == o.batches && e.draws == o.draws && bytes.Equal(e.snap, o.snap)
}

// matrixSites are the failpoint sites the matrix covers. Discovery may
// find more; it must never find fewer — a failpoint dropped in transit
// fails tier-1 here.
var matrixSites = strings.Fields(`
	journal.append.sync journal.append.write
	journal.create.open journal.create.sync journal.create.write journal.load.read
	journal.rotate.sync journal.rotate.truncate journal.rotate.write
	journal.truncate.sync journal.truncate.truncate
	persist.dir.sync persist.remove.journal persist.remove.snap
	persist.snap.cleanup persist.snap.read persist.snap.rename persist.snap.sync persist.snap.tmp persist.snap.write
	repl.meta.cleanup repl.meta.read repl.meta.rename repl.meta.sync repl.meta.tmp repl.meta.write
	repl.snap.cleanup repl.snap.read repl.snap.rename repl.snap.sync repl.snap.tmp repl.snap.write
	tombstone.cleanup tombstone.read tombstone.remove tombstone.rename tombstone.sync tombstone.tmp tombstone.write`)

// assertNoTempFiles fails if a rebooted daemon's data directory still
// holds the temp file of an atomic replace a crash interrupted: each is an
// O(state) leak nothing else would ever remove.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("the reboot left %s behind", e.Name())
		}
	}
}

// copyDir returns a fresh copy of the data directory src.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// catch runs fn and reports whether a scripted crash ended it; any other
// panic is a test bug and goes on.
func catch(fn func()) (crashed bool) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := fault.AsCrash(v); !ok {
				panic(v)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// tickOnce runs one round of the tick's steps that a matrix server has
// (tickLoop; none runs replication): the resume of parked hand-offs in
// cluster mode, then the storage step.
func tickOnce(s *server) {
	if s.table.Ring != nil && s.store != nil {
		s.resumeParked()
	}
	s.storage.probe()
}

// mxName names a fault's subtest: its site, and its hit past the first.
func mxName(site string, hit int) string {
	if hit == 1 {
		return site
	}
	return fmt.Sprintf("%s@%d", site, hit)
}

var errInjected = errors.New("injected storage failure")

func errorRule(site string, hit int) fault.Rule {
	return fault.Rule{Site: site, Hit: hit, Err: errInjected, Short: 5}
}

// faultMatrix runs a plane's cases: for each site at each hit a clean run
// counted, a subtest named for the fault (mxName), and under it one per
// kind — tail=N, error, and error+<site> for each site the error's request
// crossed after it. run plays the plane under rules, judges it, and
// returns for an error case those sites at their first crossing after it,
// counted like hits; they join seen. The faults run in parallel, and the
// plane logs its case count per kind.
func faultMatrix(t *testing.T, hits map[string]int, seen *sync.Map, run func(t *testing.T, rules ...fault.Rule) map[string]int) {
	var crashes, errs, seconds atomic.Int64
	t.Cleanup(func() {
		t.Logf("%s: %d sites, %d crash, %d error and %d second-order error cases", t.Name(), len(hits), crashes.Load(), errs.Load(), seconds.Load())
	})
	for _, site := range slices.Sorted(maps.Keys(hits)) {
		seen.Store(site, true)
		for hit := 1; hit <= hits[site]; hit++ {
			t.Run(mxName(site, hit), func(t *testing.T) {
				t.Parallel()
				for _, tail := range []fault.TailMode{fault.KeepTail, fault.DropTail, fault.TornTail} {
					crashes.Add(1)
					t.Run(fmt.Sprintf("tail=%d", tail), func(t *testing.T) {
						run(t, fault.Rule{Site: site, Hit: hit, Crash: true, Tail: tail})
					})
				}
				errs.Add(1)
				var crossed map[string]int
				t.Run("error", func(t *testing.T) { crossed = run(t, errorRule(site, hit)) })
				for _, next := range slices.Sorted(maps.Keys(crossed)) {
					seen.Store(next, true)
					if at := crossed[next]; next != site || at != hit {
						seconds.Add(1)
						t.Run("error+"+mxName(next, at), func(t *testing.T) { run(t, errorRule(site, hit), errorRule(next, at)) })
					}
				}
			})
		}
	}
}

// mxRun is one case: the script its rules are in, and what the oracle
// learns as the plane plays.
type mxRun struct {
	t      *testing.T
	script *fault.Script
	rules  []fault.Rule
	// base is each site's hit count before the plane began (a move's
	// setup crosses sites too); crossed is the first crossing, from base,
	// of each site the request the first rule fired in crossed after it.
	base, crossed map[string]int
	tracing       bool
	// dir is a single-shard plane's data directory, and controls the
	// states of its uninterrupted stream by batch count.
	dir      string
	controls []*engineState
	// acked and attempted are the stream's position: -1 nothing, 0 the
	// topic created, i batch i; warmed is an acked warm-up, and warmUps
	// counts the warm-ups sent.
	acked, attempted, warmUps int
	warmed                    bool
}

// newRun starts a case over a fresh script, with rules armed.
func newRun(t *testing.T, rules ...fault.Rule) *mxRun {
	r := &mxRun{t: t, script: fault.NewScript(), acked: -1, attempted: -1}
	r.arm(rules...)
	return r
}

// arm puts rules into the script, their hits counted from now.
func (r *mxRun) arm(rules ...fault.Rule) {
	r.base = map[string]int{}
	for _, site := range r.script.Sites() {
		r.base[site] = r.script.Hits(site)
	}
	for _, rule := range rules {
		rule.Hit += r.base[rule.Site]
		r.rules = append(r.rules, rule)
		r.script.AddRule(rule)
	}
}

// since counts each site's hits since the last arm.
func (r *mxRun) since() map[string]int {
	out := map[string]int{}
	for _, site := range r.script.Sites() {
		if n := r.script.Hits(site) - r.base[site]; n > 0 {
			out[site] = n
		}
	}
	return out
}

// fired counts the rules that have fired.
func (r *mxRun) fired() (n int) {
	for _, rule := range r.rules {
		if r.script.Hits(rule.Site) >= rule.Hit {
			n++
		}
	}
	return n
}

// after notes site, crossed just now, if the first rule has fired in the
// request being traced (see tracedFS), and passes err on.
func (r *mxRun) after(site string, err error) error {
	if !r.tracing || len(r.rules) == 0 || r.script.Hits(r.rules[0].Site) < r.rules[0].Hit {
		return err
	}
	if r.crossed == nil {
		r.crossed = map[string]int{}
	}
	if _, ok := r.crossed[site]; !ok {
		r.crossed[site] = r.script.Hits(site) - r.base[site]
	}
	return err
}

// trace runs one request, tracing it until the first rule has fired in
// one.
func (r *mxRun) trace(request func()) {
	r.tracing = r.crossed == nil
	defer func() { r.tracing = false }()
	request()
}

// tracedFS is a case's fault.FS: its script, each crossing reported to
// the run once made, so the run learns what a faulted request did after
// its fault.
type tracedFS struct{ r *mxRun }

type tracedFile struct {
	fault.File
	r *mxRun
}

func (f tracedFS) wrap(file fault.File, err error) (fault.File, error) {
	if file == nil {
		return nil, err
	}
	return tracedFile{file, f.r}, err
}

func (f tracedFS) OpenFile(site, name string, flag int, perm os.FileMode) (fault.File, error) {
	file, err := f.r.script.OpenFile(site, name, flag, perm)
	return f.wrap(file, f.r.after(site, err))
}

func (f tracedFS) CreateTemp(site, dir, pattern string) (fault.File, error) {
	file, err := f.r.script.CreateTemp(site, dir, pattern)
	return f.wrap(file, f.r.after(site, err))
}

func (f tracedFS) ReadFile(site, name string) ([]byte, error) {
	data, err := f.r.script.ReadFile(site, name)
	return data, f.r.after(site, err)
}

func (f tracedFS) Rename(site, from, to string) error {
	return f.r.after(site, f.r.script.Rename(site, from, to))
}
func (f tracedFS) Remove(site, name string) error {
	return f.r.after(site, f.r.script.Remove(site, name))
}
func (f tracedFS) SyncDir(site, dir string) error {
	return f.r.after(site, f.r.script.SyncDir(site, dir))
}
func (f tracedFile) Sync(site string) error { return f.r.after(site, f.File.Sync(site)) }
func (f tracedFile) Truncate(site string, size int64) error {
	return f.r.after(site, f.File.Truncate(site, size))
}

func (f tracedFile) Write(site string, p []byte) (int, error) {
	n, err := f.File.Write(site, p)
	return n, f.r.after(site, err)
}

// write sends one write to s and judges what it did:
//
//   - after it, every topic that admits writes holds a journal to commit
//     them to;
//   - after the request a fault reached, a restart of a copy of the data
//     directory serves what s serves (single-shard planes);
//   - it answers ok, or refuses for storage — 503 storage_degraded with a
//     Retry-After, or (not a batch) 500 storage_error — and only if a
//     fault reached its request, which healthz then counts, or while a
//     topic is read-only, which healthz then lists, at the top level and
//     in its storage section;
//   - a storage refusal of a /v1/topics/{name}[/batches|/vocab] write
//     that a fault reached leaves that topic read-only;
//   - a refused batch leaves the topic as it was: every read answers as
//     before, byte for byte, and no snapshot is read back from disk;
//   - one tick later the same write answers ok.
func (r *mxRun) write(s *server, method, path string, body any, ok int) reply {
	t := r.t
	t.Helper()
	rest, topicWrite := strings.CutPrefix(path, "/v1/topics/")
	name, batch := strings.CutSuffix(rest, "/batches")
	name = strings.TrimSuffix(name, "/vocab")
	readAll := func() (out []reply) {
		for _, read := range []string{"", "/users/0", "/features", "/snapshot"} {
			if batch {
				out = append(out, call(t, s, "GET", "/v1/topics/"+name+read, nil, nil))
			}
		}
		return out
	}
	reads, snapReads := readAll(), r.script.Hits("persist.snap.read")
	fired, failures, readOnly := r.fired(), s.storage.failures.Load(), len(s.storage.impaired()) > 0
	send := func() (a reply) {
		if strings.HasSuffix(path, "/vocab") {
			r.warmUps++
		}
		return call(t, s, method, path, body, nil)
	}
	var a reply
	r.trace(func() { a = send() })
	faulted := r.fired() > fired
	r.checkJournals(s)
	if faulted && r.dir != "" {
		// A crash now may keep a refused batch or create that reached
		// disk, a step past the daemon's position; at that position a
		// restart serves the daemon's state.
		again := serve(t, copyDir(t, r.dir), serverOptions{journal: matrixJournalOpts()}, true)
		got, live := captureTopic(t, again, mxTopic), captureTopic(t, s, mxTopic)
		switch {
		case got == nil && live == nil, got.equal(live):
		case a.code != ok && got != nil && got.batches == r.attempted && r.attempted > r.acked && got.equal(r.controls[r.attempted]):
		default:
			t.Fatalf("%s %s: %s, and a restart right after it serves another state than the daemon", method, path, a)
		}
	}
	if a.code == ok {
		return a
	}
	switch {
	case (a.code != http.StatusInternalServerError || a.ec != codeStorage || batch) &&
		(a.code != http.StatusServiceUnavailable || a.ec != codeStorageDegraded || a.hdr.Get("Retry-After") == ""):
		t.Fatalf("%s %s: %s %s, want %d or a storage refusal", method, path, a, a.body, ok)
	case !faulted && !readOnly:
		t.Fatalf("%s %s: %s with no fault in its request and no topic read-only", method, path, a)
	case faulted && strings.HasPrefix(path, "/v1/topics") && s.storage.failures.Load() == failures:
		t.Fatalf("%s %s: %s for a failure healthz does not count", method, path, a)
	}
	var hr healthResponse
	call(t, s, "GET", "/v1/healthz", nil, &hr)
	var degraded []string
	for _, tp := range s.served() {
		if tp.state.Load() == stReadOnly {
			degraded = append(degraded, tp.name)
		}
	}
	switch {
	case faulted && topicWrite && !slices.Contains(degraded, name):
		t.Fatalf("%s %s: %s for a fault in its request, and topic %q is not read-only", method, path, a, name)
	case !slices.Equal(hr.Degraded, degraded) || !slices.Equal(hr.Storage.Degraded, degraded):
		t.Fatalf("healthz lists %v and %v degraded, the daemon holds %v read-only", hr.Degraded, hr.Storage.Degraded, degraded)
	}
	for i, b := range readAll() {
		if b.code >= 500 || b.code != reads[i].code || b.etag != reads[i].etag || !bytes.Equal(b.body, reads[i].body) {
			t.Fatalf("a read answers %s (ETag %q) after the refused batch, %s (ETag %q) before", b, b.etag, reads[i], reads[i].etag)
		}
	}
	if n := r.script.Hits("persist.snap.read") - snapReads; n != 0 {
		t.Fatalf("the refused write read the snapshot back %d times", n)
	}
	tickOnce(s)
	if a = send(); a.code != ok {
		t.Fatalf("%s %s one tick after its refusal: %s %s, want %d", method, path, a, a.body, ok)
	}
	r.checkJournals(s)
	return a
}

// checkJournals fails unless each topic s serves that admits writes holds
// a journal, and (single-shard planes) the journal on disk extends the
// snapshot on disk.
func (r *mxRun) checkJournals(s *server) {
	for _, tp := range s.served() {
		tp.mu.Lock()
		held := tp.disk.HasJournal()
		tp.mu.Unlock()
		if topicStates[tp.state.Load()].writable && !held {
			r.t.Fatalf("topic %q admits writes and holds no journal", tp.name)
		}
		if !held || r.dir == "" {
			continue
		}
		j, err := journal.Load(fault.OS, filepath.Join(r.dir, tp.name+".journal"))
		snap, serr := os.ReadFile(filepath.Join(r.dir, tp.name+".snap"))
		if err != nil || serr != nil || j.SnapCRC != codec.Checksum(snap) {
			r.t.Fatalf("topic %q holds a journal that does not extend its snapshot (%v, %v)", tp.name, err, serr)
		}
	}
}

// stream plays the single-shard stream on s from where it stands up to
// batch to: the create while s serves no topic, the warm-up (warm) until
// one is acked, then the batches.
func (r *mxRun) stream(s *server, warm bool, to int) {
	from := 1
	if got := captureTopic(r.t, s, mxTopic); got != nil {
		from = got.batches + 1
	} else {
		r.attempted = max(r.attempted, 0)
		r.write(s, "POST", "/v1/topics", jtCreateReq(mxTopic), http.StatusCreated)
		r.acked = max(r.acked, 0)
	}
	if warm && !r.warmed {
		r.write(s, "POST", "/v1/topics/"+mxTopic+"/vocab", vocabRequest{Docs: [][]string{{"labeling", "w9"}, {"w9", "w8", "farmers"}}}, http.StatusOK)
		r.warmed = true
	}
	for day := from; day <= to; day++ {
		r.attempted = day
		r.write(s, "POST", mxBatch, jtBatch(day), http.StatusOK)
		r.acked = day
	}
}

// cleanStream plays the stream (warm: after a warm-up) on a daemon under a
// rule-less script. It returns the states the daemon passed through by
// batch count, one batch past mxDays; the hits of each site up to batch
// mxDays, or in the warm-up; and a copy of its data directory at batch
// mxDays, a journal tail past the compaction at batch 6.
func cleanStream(t *testing.T, warm bool) (controls []*engineState, hits map[string]int, image string) {
	dir := t.TempDir()
	r := newRun(t)
	s := serve(t, dir, serverOptions{journal: matrixJournalOpts(), fs: r.script}, true)
	if warm {
		r.stream(s, false, 0)
		r.arm()
		r.stream(s, true, 0)
		hits = r.since()
	}
	for day := 0; day <= mxDays+1; day++ {
		r.stream(s, warm, day)
		controls = append(controls, captureTopic(t, s, mxTopic))
		if day == mxDays && !warm {
			hits, image = r.since(), copyDir(t, dir)
		}
	}
	return controls, hits, image
}

func TestCrashPointMatrix(t *testing.T) {
	// The planes, and the faults within each, run in parallel; once all
	// are done the sites they crossed must cover matrixSites.
	var seen sync.Map
	t.Cleanup(func() {
		// A -run or -skip pattern that reaches into the matrix runs part
		// of it: its coverage is judged only whole.
		if strings.Contains(flag.Lookup("test.run").Value.String(), "/") || flag.Lookup("test.skip").Value.String() != "" {
			return
		}
		var covered []string
		seen.Range(func(site, _ any) bool { covered = append(covered, site.(string)); return true })
		slices.Sort(covered)
		t.Logf("the fault matrix covered %d failpoint sites: %v", len(covered), covered)
		for _, site := range matrixSites {
			if !slices.Contains(covered, site) {
				t.Errorf("the matrix no longer discovers failpoint site %s — durable-write instrumentation has regressed", site)
			}
		}
	})
	single := func(fs fault.FS) serverOptions { return serverOptions{journal: matrixJournalOpts(), fs: fs} }
	controls, streamHits, tailImage := cleanStream(t, false)
	warmControls, warmHits, _ := cleanStream(t, true)

	for _, p := range []struct {
		name     string
		warm     bool
		controls []*engineState
		hits     map[string]int
	}{
		{"BatchCommitAndCompaction", false, controls, streamHits},
		{"VocabWarmUp", true, warmControls, warmHits},
	} {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			faultMatrix(t, p.hits, &seen, func(t *testing.T, rules ...fault.Rule) map[string]int {
				dir, r := t.TempDir(), newRun(t)
				r.dir, r.controls = dir, p.controls
				s := serve(t, dir, single(tracedFS{r}), true)
				if p.warm {
					// The warm-up plane's faults are its warm-up's: the
					// batches after it cross what the batch plane's do.
					r.stream(s, false, 0)
				}
				r.arm(rules...)
				if crashed := catch(func() { r.stream(s, p.warm, mxDays) }); crashed != rules[0].Crash || r.fired() != len(rules) {
					t.Fatalf("the rules %+v fired %v, crashed %v", rules, r.fired(), crashed)
				} else if crashed {
					s.Close()
					s = serve(t, dir, single(nil), false)
					assertNoTempFiles(t, dir)
					got := captureTopic(t, s, mxTopic)
					recovered := -1
					if got != nil {
						recovered = got.batches
					}
					if recovered < r.acked || recovered > r.attempted {
						t.Fatalf("recovered %d batches, want acked %d <= recovered <= attempted %d", recovered, r.acked, r.attempted)
					}
					// A warm-up the crash cut short may or may not have
					// reached its snapshot: no control position is its own.
					if got != nil && (r.warmed || !p.warm || recovered > 0) && !got.equal(p.controls[recovered]) {
						t.Fatalf("the recovered state at %d batches diverges from the control's", recovered)
					}
					// Recovery settles: a second restart serves the same bytes.
					s.Close()
					s = serve(t, dir, single(nil), true)
					if again := captureTopic(t, s, mxTopic); (got == nil) != (again == nil) || got != nil && !again.equal(got) {
						t.Fatal("a second restart recovered another state than the first")
					}
				}
				r.stream(s, p.warm, mxDays)
				final := captureTopic(t, s, mxTopic)
				if j, err := journal.Load(fault.OS, filepath.Join(dir, mxTopic+".journal")); err != nil || len(j.Records) >= matrixJournalOpts().Every {
					t.Fatalf("the finished stream's journal: %v, want fewer records than the compaction cadence", err)
				}
				if r.warmUps <= 1 {
					if !final.equal(p.controls[mxDays]) {
						t.Fatalf("the finished stream (%d batches) diverges from the uninterrupted control", final.batches)
					}
					return r.crossed
				}
				// A warm-up sent twice is folded in twice where the first
				// reached disk: whatever the daemon serves, a restart must.
				again := serve(t, copyDir(t, dir), single(nil), true)
				if got := captureTopic(t, again, mxTopic); !got.equal(final) || again.store.Quarantined() != 0 {
					t.Fatalf("a restart serves another state than the live daemon (%d files quarantined)", again.store.Quarantined())
				}
				return r.crossed
			})
		})
	}

	t.Run("RestartJournalOpen", func(t *testing.T) {
		t.Parallel()
		// A restart writes too, and reads everything it serves. Each image
		// is booted once under a recording script, then at each of its
		// faults; check judges the daemon that came up.
		compacted := copyDir(t, tailImage)
		serve(t, compacted, serverOptions{journal: matrixJournalOpts()}, false).Close()
		parked := copyDir(t, compacted)
		if err := dirStore(t, parked).SetTombstone(mxTopic, cluster.Tombstone{Epoch: 1, Target: "http://peer.test:8547"}); err != nil {
			t.Fatal(err)
		}
		replica := t.TempDir()
		rs := serve(t, replica, replicaMatrixOpts(t, nil), false)
		shipReplicaFrames(newRun(t), rs)
		rs.Close()

		serves := func(r *mxRun, s *server, _ string) {
			if got := captureTopic(r.t, s, mxTopic); !got.equal(controls[mxDays]) {
				r.t.Fatalf("the restart serves %+v, want the control's %d batches", got, mxDays)
			}
			r.write(s, "POST", mxBatch, jtBatch(mxDays+1), http.StatusOK)
			if got := captureTopic(r.t, s, mxTopic); !got.equal(controls[mxDays+1]) {
				r.t.Fatal("the next batch after the restart diverges from the control")
			}
		}
		for _, img := range []struct {
			name, dir string
			opts      func(fs fault.FS) serverOptions
			check     func(r *mxRun, s *server, dir string)
		}{
			{"tail", tailImage, single, serves},
			{"compacted", compacted, single, serves},
			{"parked", parked, func(fs fault.FS) serverOptions {
				return serverOptions{journal: matrixJournalOpts(), cluster: selfAndPeer(t), fs: fs}
			}, func(r *mxRun, s *server, dir string) {
				// The interrupted hand-off stays fenced, its state on disk.
				if _, fenced := s.table.Tombstone(mxTopic); captureTopic(r.t, s, mxTopic) != nil || !fenced {
					r.t.Fatal("the restart serves a parked hand-off, or lost its fence")
				}
				if a := call(r.t, s, "POST", mxBatch, jtBatch(mxDays+1), nil); a.code != http.StatusServiceUnavailable || a.ec != codeHandoffPending {
					r.t.Fatalf("a batch for the parked hand-off: %s, want 503 %s", a, codeHandoffPending)
				}
				got, err := os.ReadFile(filepath.Join(dir, mxTopic+".snap"))
				if want, _ := os.ReadFile(filepath.Join(compacted, mxTopic+".snap")); err != nil || !bytes.Equal(got, want) {
					r.t.Fatalf("the parked snapshot is not the one the hand-off left (%v)", err)
				}
			}},
			{"replica", replica, func(fs fault.FS) serverOptions { return replicaMatrixOpts(t, fs) }, func(r *mxRun, s *server, dir string) {
				if _, held := s.store.Replicas()[mxTopic]; !held {
					r.t.Fatal("the restart dropped the replica")
				}
				r.write(s, "POST", "/v1/replica/"+mxTopic+"/append", replicaFrame(r.t, 4), http.StatusOK)
				if b, d := replicaPos(r.t, dir, mxTopic); b != 4 || d != 40 {
					r.t.Fatalf("replica at (%d,%d) after the next frame, want (4,40)", b, d)
				}
			}},
		} {
			t.Run(img.name, func(t *testing.T) {
				disc := newRun(t)
				serve(t, copyDir(t, img.dir), img.opts(disc.script), false).Close()
				faultMatrix(t, disc.since(), &seen, func(t *testing.T, rules ...fault.Rule) map[string]int {
					dir := copyDir(t, img.dir)
					r := newRun(t, rules...)
					var s *server
					var err error
					crashed := catch(func() { r.trace(func() { s, err = newServer(dir, img.opts(tracedFS{r}), t.Logf) }) })
					switch {
					case crashed != rules[0].Crash || r.fired() != len(rules):
						t.Fatalf("the rules %+v fired %v, crashed %v", rules, r.fired(), crashed)
					case err != nil && !strings.Contains(err.Error(), mxTopic+"."):
						t.Fatalf("start-up failed without naming a file: %v", err)
					case crashed || err != nil:
						s = serve(t, dir, img.opts(nil), true)
						assertNoTempFiles(t, dir)
					default:
						t.Cleanup(s.Close)
					}
					if n := s.store.Quarantined(); n != 0 && !crashed {
						t.Fatalf("the restart quarantined %d files", n)
					}
					img.check(r, s, dir)
					return r.crossed
				})
			})
		}
	})

	t.Run("ClusterMove", func(t *testing.T) {
		t.Parallel()
		// One clean move discovers the hand-off's write sites (final
		// compaction, tombstone fence, post-install removal); the same
		// cluster then finishes the stream on the target for the control.
		r := newRun(t)
		tc, name := moveCluster(t, r.script)
		r.arm()
		if a := call(t, tc.shards[0].srv, "POST", "/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(1)}, nil); a.code != http.StatusOK {
			t.Fatalf("clean discovery move: %s %s", a, a.body)
		}
		hits := r.since()
		// The fence-to-removal window must be part of the matrix: its
		// crash is the one that forks a topic if resume is broken.
		if hits["tombstone.rename"] == 0 || hits["persist.remove.snap"] == 0 {
			t.Fatalf("move sites %v miss the fence or the removal", hits)
		}
		for day := 3; day <= mxDays; day++ {
			r.write(tc.shards[1].srv, "POST", "/v1/topics/"+name+"/batches", jtBatch(day), http.StatusOK)
		}
		control := captureTopic(t, tc.shards[1].srv, name)

		faultMatrix(t, hits, &seen, func(t *testing.T, rules ...fault.Rule) map[string]int {
			r := newRun(t)
			tc, name := moveCluster(t, tracedFS{r})
			want := captureTopic(t, tc.shards[0].srv, name)
			r.arm(rules...)
			move := moveRequest{Topic: name, Target: tc.url(1)}
			if crashed := catch(func() { r.write(tc.shards[0].srv, "POST", "/v1/cluster/move", move, http.StatusOK) }); crashed != rules[0].Crash || r.fired() != len(rules) {
				t.Fatalf("the rules %+v fired %v, crashed %v", rules, r.fired(), crashed)
			} else if crashed {
				// Reboot the source over the frozen image and retry: a fresh
				// hand-off, a resume of the interrupted one, or a no-op where
				// the crashed one had completed.
				tc.shards[0].srv.Close()
				tc.shards[0].fs = nil
				tc.boot(0)
				assertNoTempFiles(t, tc.shards[0].dir)
				_, where := tc.shards[0].srv.route(name)
				var mr moveResponse
				switch a := call(t, tc.client, "POST", tc.url(0)+"/v1/cluster/move", move, &mr); {
				case a.code == http.StatusOK && mr.Resumed == where.Parked:
				case a.code == http.StatusBadRequest && strings.Contains(string(a.body), "already lives") && !where.Parked:
				default:
					t.Fatalf("move retry (parked %v): %s %s", where.Parked, a, a.body)
				}
			}

			// Exactly one shard serves the topic, at the pre-move position;
			// the source routes it there, and a retried move leaves the
			// source no copy (a failed removal leaves one, fenced).
			var holder *server
			for _, sd := range tc.shards {
				var info clusterInfoResponse
				if call(t, sd.srv, "GET", "/v1/cluster/info?topic="+name, nil, &info); info.Topic.Local {
					if holder != nil {
						t.Fatal("both shards serve the topic after the move")
					}
					holder = sd.srv
				}
			}
			if got := captureTopic(t, holder, name); holder == nil || got.batches != want.batches || got.draws != want.draws {
				t.Fatalf("the topic after the move: %+v, want the pre-move (%d,%d)", got, want.batches, want.draws)
			}
			if src := tc.shards[0].srv; rules[0].Crash && holder != src && src.store.HasSnapshot(name) {
				t.Fatal("the source kept its snapshot of the moved topic")
			}
			if a := call(t, tc.client, "GET", tc.url(0)+"/v1/topics/"+name, nil, nil); a.code != http.StatusOK {
				t.Fatalf("a read through the source: %s", a)
			}
			for day := want.batches + 1; day <= mxDays; day++ {
				r.write(holder, "POST", "/v1/topics/"+name+"/batches", jtBatch(day), http.StatusOK)
			}
			if !captureTopic(t, holder, name).equal(control) {
				t.Fatal("the finished stream diverges from the control's")
			}
			return r.crossed
		})
	})

	t.Run("ReplicaInstall", func(t *testing.T) {
		t.Parallel()
		// Discovery: one base install plus two incremental tails on a
		// follower under a recording script.
		r := newRun(t)
		shipReplicaFrames(r, serve(t, t.TempDir(), replicaMatrixOpts(t, r.script), true))
		faultMatrix(t, r.since(), &seen, func(t *testing.T, rules ...fault.Rule) map[string]int {
			dir := t.TempDir()
			r := newRun(t, rules...)
			s := serve(t, dir, replicaMatrixOpts(t, tracedFS{r}), true)
			if crashed := catch(func() { shipReplicaFrames(r, s) }); crashed != rules[0].Crash || r.fired() != len(rules) {
				t.Fatalf("the rules %+v fired %v, crashed %v", rules, r.fired(), crashed)
			} else if crashed {
				// Reboot the follower: whatever half-written replica files
				// the crash left, startup quarantines or adopts them. The
				// primary re-ships a full base on the lag.
				s.Close()
				s = serve(t, dir, replicaMatrixOpts(t, nil), true)
				assertNoTempFiles(t, dir)
				shipReplicaFrames(r, s)
			}
			if b, d := replicaPos(t, dir, mxTopic); b != 3 || d != 30 {
				t.Fatalf("replica at (%d,%d), want (3,30)", b, d)
			}
			return r.crossed
		})
	})

}

// TestMoveResumeRepointSyncsDir: resuming an interrupted hand-off onto a
// different target than first recorded re-points the tombstone — a rename
// like every other, so the directory must be fsynced after it or a power
// cut can bring the old target back. The resume is crashed at its first
// directory fsync; by then the tombstone's rename must have happened.
func TestMoveResumeRepointSyncsDir(t *testing.T) {
	tc := newCluster(t, 3, serverOptions{journal: store.Options{Every: 4, MaxBytes: 8 << 20}}, true)
	name := harnessTopicName(3)
	src := tc.ownerIdx(name)
	first, second := (src+1)%3, (src+2)%3
	tc.retryJSON("POST", tc.url(src)+"/v1/topics", harnessCreateReq(3), nil, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(src)+"/v1/topics/"+name+"/batches", harnessBatch(3, day), nil, http.StatusOK)
	}
	// Crash mid-hand-off to the first target, then reboot the source on a
	// recording script.
	tc.shards[src].sh.kill()
	if err := dirStore(t, tc.shards[src].dir).SetTombstone(name, cluster.Tombstone{Epoch: 1, Target: tc.url(first)}); err != nil {
		t.Fatal(err)
	}
	script := fault.NewScript()
	tc.opts.fs = script
	tc.boot(src)

	renames := script.Hits("tombstone.rename")
	script.AddRule(fault.Rule{Site: "persist.dir.sync", Hit: script.Hits("persist.dir.sync") + 1, Crash: true})
	if !catch(func() {
		call(t, tc.shards[src].srv, "POST", "/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(second)}, nil)
	}) {
		t.Fatal("the resumed hand-off re-pointed its tombstone without ever fsyncing the directory")
	}
	if got := script.Hits("tombstone.rename"); got != renames+1 {
		t.Fatalf("the directory fsync came after %d tombstone renames, want exactly 1 before it", got-renames)
	}
}

// moveCluster boots two shards on the harness network, the source shard 0
// writing through fs, and gives it a topic the ring places there, fed two
// batches: ready for a hand-off to shard 1.
func moveCluster(t *testing.T, fs fault.FS) (*testCluster, string) {
	tc := newCluster(t, 2, serverOptions{journal: matrixJournalOpts()}, true)
	tc.shards[0].srv.Close()
	tc.shards[0].fs = fs
	tc.boot(0)
	name := harnessTopicName(0)
	for i := 1; tc.ownerIdx(name) != 0; i++ {
		name = harnessTopicName(i)
	}
	r := newRun(t)
	r.write(tc.shards[0].srv, "POST", "/v1/topics", jtCreateReq(name), http.StatusCreated)
	for day := 1; day <= 2; day++ {
		r.write(tc.shards[0].srv, "POST", "/v1/topics/"+name+"/batches", jtBatch(day), http.StatusOK)
	}
	return tc, name
}

// replicaMatrixOpts are a follower's whose replica files go through fs,
// with fake ring peers (the replica wire is driven by hand, so no peer has
// to exist). Background machinery stays off.
func replicaMatrixOpts(t *testing.T, fs fault.FS) serverOptions {
	return serverOptions{journal: matrixJournalOpts(), cluster: selfAndPeer(t),
		repl: &replOptions{Factor: 2}, fs: fs, probeEvery: time.Hour}
}

// replicaFrame is the primary's frame that takes the follower to batch n
// (draws 10n): a full ship of the base at (1,10), or a one-record tail.
func replicaFrame(t *testing.T, n int) []byte {
	base := []byte("the replica's base snapshot, opaque to the follower")
	fr := &codec.ReplAppend{Source: "http://peer.test:8547", SnapCRC: codec.Checksum(base), Batches: uint64(n), RandDraws: uint64(10 * n)}
	if n == 1 {
		fr.BaseBatches, fr.BaseRandDraws, fr.Snapshot = 1, 10, base
	} else {
		fr.Tail = tailFrame(t, n, n, uint64(10*n))
	}
	return codec.AppendReplAppend(nil, fr)
}

// shipReplicaFrames drives the follower s through a full ship of the base
// at (1,10) and incremental tails to (2,20) and (3,30).
func shipReplicaFrames(r *mxRun, s *server) {
	for n := 1; n <= 3; n++ {
		r.write(s, "POST", "/v1/replica/"+mxTopic+"/append", replicaFrame(r.t, n), http.StatusOK)
	}
}
