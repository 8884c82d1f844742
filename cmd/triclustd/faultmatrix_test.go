package main

// The crash-point recovery matrix: every failpoint site the durable-write
// paths actually traverse is discovered at runtime (a rule-less
// fault.Script records the sites it sees), then each discovered site is
// killed at its first hit and the daemon is rebooted over the surviving
// disk image. No hand-maintained site list — a new write site added
// anywhere in the store automatically enters the matrix, and the
// assertion at the bottom fails the build if any of the sites covered
// today is lost in a later refactor.
//
// Four workloads cover the durable-write planes:
//
//   - batch commit + compaction on a single shard (create, journal
//     appends, periodic snapshot + rotate),
//   - a restart opening each loaded topic's journal (startup compaction
//     of a replayed tail, or an empty journal restarted in place),
//   - an operator-driven cluster move (final compaction, tombstone
//     fencing, post-install file removal),
//   - replica installation on a follower (base snapshot, replica
//     journal, meta).
//
// The invariant after every kill+reopen: acked ≤ recovered ≤ attempted —
// every acknowledged batch survives, nothing beyond what was attempted
// appears, recovery itself never fails, the recovered state is
// byte-identical to a control run at the same position, a second restart
// reproduces it bit-for-bit, the reopened daemon accepts writes, and the
// reboot leaves no *.tmp* file of an interrupted atomic replace behind.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/store"
)

const (
	mxTopic = "mx"
	mxDays  = 7
)

func matrixJournalOpts() store.Options {
	// Every:3 puts compactions at batches 3 and 6, so the 7-day workload
	// crosses append-only stretches and two snapshot+rotate points.
	return store.Options{Every: 3, MaxBytes: 1 << 40}
}

// matrixServe sends one request straight through ServeHTTP — no TCP, no
// net/http panic recovery — so a scripted *Crash panic propagates to the
// matrix driver exactly like a kill -9 unwinds the process. A 307 (the
// shard does not hold the topic) is followed once, the same way, to the
// shard of setupMoveCluster its Location names.
func matrixServe(t *testing.T, s *server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatalf("marshal %T: %v", body, err)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(data)))
	if rec.Code != http.StatusTemporaryRedirect {
		return rec
	}
	loc, err := url.Parse(rec.Header().Get("Location"))
	if err != nil {
		t.Fatalf("307 with a bad Location: %v", err)
	}
	h, ok := matrixShards.Load(loc.Scheme + "://" + loc.Host)
	if !ok {
		t.Fatalf("307 to %s, which is no shard of this matrix", loc)
	}
	rec = httptest.NewRecorder()
	h.(http.Handler).ServeHTTP(rec, httptest.NewRequest(method, loc.RequestURI(), bytes.NewReader(data)))
	return rec
}

// matrixShards maps each setupMoveCluster shard's base URL to its
// switchable front, so matrixServe can follow a 307 in-process.
var matrixShards sync.Map

// runMatrixWorkload drives create + mxDays batches, reporting progress as
// batch-count states: -1 = nothing, 0 = topic created, i = batch i acked.
// A scripted crash is recovered and returned; any other panic is a test
// bug and re-panics.
func runMatrixWorkload(t *testing.T, s *server) (acked, attempted int, crash *fault.Crash) {
	acked, attempted = -1, -1
	defer func() {
		if r := recover(); r != nil {
			c, ok := fault.AsCrash(r)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	attempted = 0
	if rec := matrixServe(t, s, "POST", "/v1/topics", degradeCreateReq(mxTopic)); rec.Code != http.StatusCreated {
		return
	}
	acked = 0
	for day := 1; day <= mxDays; day++ {
		attempted = day
		if rec := matrixServe(t, s, "POST", "/v1/topics/"+mxTopic+"/batches", degradeBatch(day)); rec.Code != http.StatusOK {
			return
		}
		acked = day
	}
	return
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
	st.batches, st.draws = tp.eng().StreamPos()
	var buf bytes.Buffer
	if err := tp.eng().Snapshot(&buf); err != nil {
		t.Fatalf("snapshot %q: %v", name, err)
	}
	st.snap = buf.Bytes()
	return st
}

// matrixSites are the failpoint sites the matrix covered when the durable
// writes moved behind internal/store. Discovery may find more; it must
// never find fewer — a failpoint dropped in transit fails tier-1 here.
var matrixSites = strings.Fields(`
	journal.append.sync journal.append.write
	journal.create.open journal.create.sync journal.create.write journal.load.read
	journal.rotate.sync journal.rotate.truncate journal.rotate.write
	persist.dir.sync persist.remove.journal persist.remove.snap
	persist.snap.cleanup persist.snap.read persist.snap.rename persist.snap.sync persist.snap.tmp persist.snap.write
	repl.meta.cleanup repl.meta.rename repl.meta.sync repl.meta.tmp repl.meta.write
	repl.snap.cleanup repl.snap.rename repl.snap.sync repl.snap.tmp repl.snap.write
	tombstone.cleanup tombstone.rename tombstone.sync tombstone.tmp tombstone.write`)

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

func TestCrashPointMatrix(t *testing.T) {
	// Union of every failpoint site any workload discovered, checked
	// against matrixSites at the bottom.
	allSites := map[string]bool{}
	noteSites := func(sites []string) {
		for _, site := range sites {
			allSites[site] = true
		}
	}

	t.Run("BatchCommitAndCompaction", func(t *testing.T) {
		// Control run: the states a crash-free daemon passes through,
		// indexed by batch count.
		ctrl, err := newServer(t.TempDir(), serverOptions{journal: matrixJournalOpts()}, t.Logf)
		if err != nil {
			t.Fatalf("control server: %v", err)
		}
		defer ctrl.Close()
		controls := make([]*engineState, 0, mxDays+1)
		if rec := matrixServe(t, ctrl, "POST", "/v1/topics", degradeCreateReq(mxTopic)); rec.Code != http.StatusCreated {
			t.Fatalf("control create: %d", rec.Code)
		}
		controls = append(controls, captureTopic(t, ctrl, mxTopic))
		for day := 1; day <= mxDays; day++ {
			if rec := matrixServe(t, ctrl, "POST", "/v1/topics/"+mxTopic+"/batches", degradeBatch(day)); rec.Code != http.StatusOK {
				t.Fatalf("control batch %d: %d", day, rec.Code)
			}
			controls = append(controls, captureTopic(t, ctrl, mxTopic))
		}

		// Discovery: the same workload under a recording script, plus a
		// recorded reopen so load-side sites count toward the floor.
		dir := t.TempDir()
		disc := fault.NewScript()
		ds, err := newServer(dir, serverOptions{journal: matrixJournalOpts(), fs: disc}, t.Logf)
		if err != nil {
			t.Fatalf("discovery server: %v", err)
		}
		if acked, _, crash := runMatrixWorkload(t, ds); crash != nil || acked != mxDays {
			t.Fatalf("rule-less discovery run: acked=%d crash=%v", acked, crash)
		}
		ds.Close()
		sites := disc.Sites()
		noteSites(sites)
		reload := fault.NewScript()
		rs, err := newServer(dir, serverOptions{journal: matrixJournalOpts(), fs: reload}, t.Logf)
		if err != nil {
			t.Fatalf("discovery reopen: %v", err)
		}
		rs.Close()
		noteSites(reload.Sites())
		if len(sites) == 0 {
			t.Fatal("discovery found no failpoint sites — instrumentation is gone")
		}

		for _, site := range sites {
			for _, tail := range []fault.TailMode{fault.KeepTail, fault.DropTail, fault.TornTail} {
				t.Run(fmt.Sprintf("%s/tail=%d", site, tail), func(t *testing.T) {
					dir := t.TempDir()
					script := fault.NewScript(fault.Rule{Site: site, Hit: 1, Crash: true, Tail: tail})
					s, err := newServer(dir, serverOptions{journal: matrixJournalOpts(), fs: script}, t.Logf)
					if err != nil {
						t.Fatalf("newServer: %v", err)
					}
					acked, attempted, crash := runMatrixWorkload(t, s)
					s.Close()
					if crash == nil {
						t.Fatalf("site %s was hit in discovery but the workload finished without crashing (acked=%d)", site, acked)
					}

					// Reboot over the frozen disk image. Recovery must never
					// fail, whatever the crash left behind.
					s2, err := newServer(dir, serverOptions{journal: matrixJournalOpts()}, t.Logf)
					if err != nil {
						t.Fatalf("recovery after crash at %s failed: %v", site, err)
					}
					assertNoTempFiles(t, dir)
					got := captureTopic(t, s2, mxTopic)
					recovered := -1
					if got != nil {
						recovered = got.batches
					}
					if recovered < acked || recovered > attempted {
						t.Fatalf("crash at %s: recovered %d batches, want acked %d <= recovered <= attempted %d",
							site, recovered, acked, attempted)
					}
					if got != nil {
						want := controls[recovered]
						if got.draws != want.draws || !bytes.Equal(got.snap, want.snap) {
							t.Fatalf("crash at %s: recovered state at %d batches diverges from the control run (draws %d vs %d, snap equal=%v)",
								site, recovered, got.draws, want.draws, bytes.Equal(got.snap, want.snap))
						}
					}
					s2.Close()

					// Second restart: recovery must be idempotent — replay,
					// quarantine and compaction decisions settle to the same
					// bytes, not a state that drifts per reboot.
					s3, err := newServer(dir, serverOptions{journal: matrixJournalOpts()}, t.Logf)
					if err != nil {
						t.Fatalf("second reopen after crash at %s failed: %v", site, err)
					}
					defer s3.Close()
					again := captureTopic(t, s3, mxTopic)
					switch {
					case (got == nil) != (again == nil):
						t.Fatalf("crash at %s: topic presence differs between restarts", site)
					case got != nil && (again.batches != got.batches || again.draws != got.draws || !bytes.Equal(again.snap, got.snap)):
						t.Fatalf("crash at %s: second restart recovered (%d,%d), first (%d,%d), snap equal=%v",
							site, again.batches, again.draws, got.batches, got.draws, bytes.Equal(again.snap, got.snap))
					}

					// The recovered daemon must accept writes again.
					if got == nil {
						if rec := matrixServe(t, s3, "POST", "/v1/topics", degradeCreateReq(mxTopic)); rec.Code != http.StatusCreated {
							t.Fatalf("re-create after crash at %s: %d", site, rec.Code)
						}
					}
					if rec := matrixServe(t, s3, "POST", "/v1/topics/"+mxTopic+"/batches", degradeBatch(50)); rec.Code != http.StatusOK {
						t.Fatalf("batch after recovery from crash at %s: %d %s", site, rec.Code, rec.Body.String())
					}
				})
			}
		}
	})

	t.Run("RestartJournalOpen", func(t *testing.T) {
		// A restart writes too: every loaded topic gets its journal —
		// folded into a fresh snapshot when records were replayed, restarted
		// empty otherwise. Kill each of those writes on both kinds of disk
		// image; the next boot must still serve all mxDays batches.
		withTail := t.TempDir() // ends one record past the compaction at batch 6
		ctrl, err := newServer(withTail, serverOptions{journal: matrixJournalOpts()}, t.Logf)
		if err != nil {
			t.Fatalf("control server: %v", err)
		}
		defer ctrl.Close()
		if acked, _, _ := runMatrixWorkload(t, ctrl); acked != mxDays {
			t.Fatalf("control run acked %d batches", acked)
		}
		want := captureTopic(t, ctrl, mxTopic)
		compacted := t.TempDir()
		if err := os.CopyFS(compacted, os.DirFS(withTail)); err != nil {
			t.Fatal(err)
		}
		cs, err := newServer(compacted, serverOptions{journal: matrixJournalOpts()}, t.Logf)
		if err != nil {
			t.Fatalf("compacting reopen: %v", err)
		}
		cs.Close()

		for image, src := range map[string]string{"tail": withTail, "compacted": compacted} {
			disc := fault.NewScript()
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
				t.Fatal(err)
			}
			ds, err := newServer(dir, serverOptions{journal: matrixJournalOpts(), fs: disc}, t.Logf)
			if err != nil {
				t.Fatalf("discovery reopen: %v", err)
			}
			ds.Close()
			noteSites(disc.Sites())
			for _, site := range disc.Sites() {
				for _, tail := range []fault.TailMode{fault.KeepTail, fault.DropTail, fault.TornTail} {
					t.Run(fmt.Sprintf("%s/%s/tail=%d", image, site, tail), func(t *testing.T) {
						dir := t.TempDir()
						if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
							t.Fatal(err)
						}
						script := fault.NewScript(fault.Rule{Site: site, Hit: 1, Crash: true, Tail: tail})
						func() {
							defer func() {
								if _, ok := fault.AsCrash(recover()); !ok {
									t.Fatalf("site %s was hit in discovery but the reopen did not crash", site)
								}
							}()
							_, _ = newServer(dir, serverOptions{journal: matrixJournalOpts(), fs: script}, t.Logf)
						}()
						s2, err := newServer(dir, serverOptions{journal: matrixJournalOpts()}, t.Logf)
						if err != nil {
							t.Fatalf("recovery after a restart crashed at %s failed: %v", site, err)
						}
						defer s2.Close()
						assertNoTempFiles(t, dir)
						got := captureTopic(t, s2, mxTopic)
						if got == nil || got.batches != mxDays || got.draws != want.draws || !bytes.Equal(got.snap, want.snap) {
							t.Fatalf("restart crashed at %s: recovered %+v, want the control's %d batches byte-identical", site, got, mxDays)
						}
						if rec := matrixServe(t, s2, "POST", "/v1/topics/"+mxTopic+"/batches", degradeBatch(50)); rec.Code != http.StatusOK {
							t.Fatalf("batch after recovery: %d %s", rec.Code, rec.Body.String())
						}
					})
				}
			}
		}
	})

	t.Run("ClusterMove", func(t *testing.T) {
		// One clean move discovers the hand-off's write sites (final
		// compaction, tombstone fence, post-install removal); then each is
		// crashed and the move is retried against the rebooted source.
		script, _, servers, urls, _, name := setupMoveCluster(t)
		pre := map[string]int{}
		for _, site := range script.Sites() {
			pre[site] = script.Hits(site)
		}
		if rec := matrixServe(t, servers[0], "POST", "/v1/cluster/move",
			moveRequest{Topic: name, Target: urls[1]}); rec.Code != http.StatusOK {
			t.Fatalf("clean discovery move: %d %s", rec.Code, rec.Body.String())
		}
		var moveSites []string
		for _, site := range script.Sites() {
			if script.Hits(site) > pre[site] {
				moveSites = append(moveSites, site)
			}
		}
		sort.Strings(moveSites)
		noteSites(moveSites)
		if len(moveSites) == 0 {
			t.Fatal("the hand-off traversed no failpoint sites")
		}
		// The fence-to-removal window must be part of the matrix: its
		// crash is the one that forks a topic if resume is broken.
		for _, must := range []string{"tombstone.rename", "persist.remove.snap"} {
			found := false
			for _, site := range moveSites {
				found = found || site == must
			}
			if !found {
				t.Fatalf("move sites %v miss %s", moveSites, must)
			}
		}

		for _, site := range moveSites {
			t.Run(site, func(t *testing.T) {
				script, srcDir, servers, urls, handlers, name := setupMoveCluster(t)
				want := captureTopic(t, servers[0], name)
				script.AddRule(fault.Rule{Site: site, Hit: script.Hits(site) + 1, Crash: true, Tail: fault.DropTail})

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
					matrixServe(t, servers[0], "POST", "/v1/cluster/move",
						moveRequest{Topic: name, Target: urls[1]})
				}()
				if !crashed {
					t.Fatalf("site %s was hit by the clean move but this move finished without crashing", site)
				}
				servers[0].Close()

				// Reboot the source shard over the frozen image and point
				// its public URL at the new instance.
				cc, err := newClusterConfig(urls[0], strings.Join(urls[:], ","), 32)
				if err != nil {
					t.Fatalf("cluster config: %v", err)
				}
				s0b, err := newServer(srcDir, serverOptions{journal: matrixJournalOpts(), cluster: cc}, t.Logf)
				if err != nil {
					t.Fatalf("source reboot after crash at %s failed: %v", site, err)
				}
				defer s0b.Close()
				assertNoTempFiles(t, srcDir)
				handlers[0].swap(s0b)

				// Retry the move. Depending on where the crash fell this is
				// a fresh hand-off, a resume of the interrupted one, or a
				// no-op because the topic already completed its journey —
				// never a fork, never a stuck topic.
				rec := matrixServe(t, s0b, "POST", "/v1/cluster/move",
					moveRequest{Topic: name, Target: urls[1]})
				switch {
				case rec.Code == http.StatusOK:
				case rec.Code == http.StatusBadRequest && strings.Contains(rec.Body.String(), "already lives"):
					// Redirected to the target, which already owns it: the
					// crashed move had fully completed.
				default:
					t.Fatalf("move retry after crash at %s: %d %s", site, rec.Code, rec.Body.String())
				}

				// Exactly one shard serves the topic, at the pre-move
				// position — acked batches crossed the hand-off intact.
				holders := 0
				var holder *server
				for _, sv := range []*server{s0b, servers[1]} {
					var info clusterInfoResponse
					rec := matrixServe(t, sv, "GET", "/v1/cluster/info?topic="+name, nil)
					if rec.Code != http.StatusOK {
						t.Fatalf("cluster info: %d", rec.Code)
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
						t.Fatalf("decode cluster info: %v", err)
					}
					if info.Topic != nil && info.Topic.Local {
						holders++
						holder = sv
					}
				}
				if holders != 1 {
					t.Fatalf("crash at %s: %d shards serve %q after the retried move, want exactly 1 (fork or loss)", site, holders, name)
				}
				got := captureTopic(t, holder, name)
				if got.batches != want.batches || got.draws != want.draws {
					t.Fatalf("crash at %s: topic at (%d,%d) after the move, want pre-move (%d,%d)",
						site, got.batches, got.draws, want.batches, want.draws)
				}

				// And the topic keeps taking writes wherever it landed —
				// routed through the rebooted source, following the fence.
				if rec := matrixServe(t, s0b, "POST", "/v1/topics/"+name+"/batches", degradeBatch(50)); rec.Code != http.StatusOK {
					t.Fatalf("batch after crash at %s: %d %s", site, rec.Code, rec.Body.String())
				}
			})
		}
	})

	t.Run("ReplicaInstall", func(t *testing.T) {
		// Discovery: one base install plus two incremental tails on a
		// follower under a recording script.
		dir := t.TempDir()
		disc := fault.NewScript()
		s := replicaMatrixServer(t, dir, disc)
		if acked, crash := shipReplicaFrames(t, s); crash != nil || acked != 3 {
			t.Fatalf("rule-less replica discovery: acked=%d crash=%v", acked, crash)
		}
		s.Close()
		sites := disc.Sites()
		noteSites(sites)
		if len(sites) == 0 {
			t.Fatal("the replica install traversed no failpoint sites")
		}

		for _, site := range sites {
			for _, tail := range []fault.TailMode{fault.KeepTail, fault.DropTail, fault.TornTail} {
				t.Run(fmt.Sprintf("%s/tail=%d", site, tail), func(t *testing.T) {
					dir := t.TempDir()
					script := fault.NewScript(fault.Rule{Site: site, Hit: 1, Crash: true, Tail: tail})
					s := replicaMatrixServer(t, dir, script)
					acked, crash := shipReplicaFrames(t, s)
					s.Close()
					if crash == nil {
						t.Fatalf("site %s was hit in discovery but the frames landed without crashing (acked=%d)", site, acked)
					}

					// Reboot the follower: whatever half-written replica
					// files the crash left, startup must quarantine or
					// adopt them — never fail.
					s2 := replicaMatrixServer(t, dir, nil)
					defer s2.Close()
					assertNoTempFiles(t, dir)

					// The primary notices the lag and re-ships a full base;
					// the follower must converge on it regardless of the
					// rubble the crash left behind.
					code, ack, ec, _ := postReplFrame(t, s2, mxTopic, &codec.ReplAppend{
						Source: "http://peer.test:8547", Epoch: 0, SnapCRC: replicaMatrixCRC(),
						BaseBatches: 1, BaseRandDraws: 10,
						Batches: 3, RandDraws: 30,
						Snapshot: replicaMatrixSnap(),
						Tail:     append(tailFrame(t, 2, 2, 20), tailFrame(t, 3, 3, 30)...),
					})
					if code != http.StatusOK || ack.Batches != 3 || ack.RandDraws != 30 {
						t.Fatalf("full re-ship after crash at %s: %d %s ack=%+v", site, code, ec, ack)
					}
					if b, d := replicaPos(t, dir, mxTopic); b != 3 || d != 30 {
						t.Fatalf("replica at (%d,%d) after re-ship, want (3,30)", b, d)
					}
				})
			}
		}
	})

	var union []string
	for site := range allSites {
		union = append(union, site)
	}
	sort.Strings(union)
	t.Logf("crash-point matrix covered %d failpoint sites: %v", len(union), union)
	for _, site := range matrixSites {
		if !allSites[site] {
			t.Errorf("the matrix no longer discovers failpoint site %s — durable-write instrumentation has regressed", site)
		}
	}
}

// TestMoveResumeAfterFenceCrash pins the nastiest hand-off window: the
// crash falls after the tombstone fenced the topic and the snapshot was
// installed on the target, but before the source removed its own files.
// On reboot the source must treat the leftover tombstone + snapshot as an
// interrupted hand-off and *resume* it on the next move — finishing the
// local drop — never as a servable topic, which would put two live
// copies of the same name in the cluster (a fork).
func TestMoveResumeAfterFenceCrash(t *testing.T) {
	script, srcDir, servers, urls, handlers, name := setupMoveCluster(t)
	want := captureTopic(t, servers[0], name)
	// First hit of the post-install removal: exactly the fence→removal gap.
	script.AddRule(fault.Rule{Site: "persist.remove.snap", Hit: script.Hits("persist.remove.snap") + 1,
		Crash: true, Tail: fault.DropTail})
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := fault.AsCrash(r); !ok {
					panic(r)
				}
			}
		}()
		matrixServe(t, servers[0], "POST", "/v1/cluster/move", moveRequest{Topic: name, Target: urls[1]})
		t.Error("the move completed without crashing at persist.remove.snap")
	}()
	if t.Failed() {
		return
	}
	servers[0].Close()

	cc, err := newClusterConfig(urls[0], strings.Join(urls[:], ","), 32)
	if err != nil {
		t.Fatalf("cluster config: %v", err)
	}
	s0b, err := newServer(srcDir, serverOptions{journal: matrixJournalOpts(), cluster: cc}, t.Logf)
	if err != nil {
		t.Fatalf("source reboot: %v", err)
	}
	defer s0b.Close()
	handlers[0].swap(s0b)

	// The rebooted source must hold the topic fenced, not serve it: a
	// batch routed at it may follow the tombstone to the target, but the
	// source itself must not apply it to the leftover snapshot.
	s0b.mu.RLock()
	_, servesLocally := s0b.topics[name]
	_, fenced := s0b.moved[name]
	s0b.mu.RUnlock()
	if servesLocally || !fenced {
		t.Fatalf("rebooted source: local=%v fenced=%v, want the interrupted hand-off held back (false, true)", servesLocally, fenced)
	}

	// Retrying the move resumes the interrupted hand-off rather than
	// starting a new one (or forking the topic).
	rec := matrixServe(t, s0b, "POST", "/v1/cluster/move", moveRequest{Topic: name, Target: urls[1]})
	if rec.Code != http.StatusOK {
		t.Fatalf("move retry: %d %s", rec.Code, rec.Body.String())
	}
	var mr moveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatalf("decode move response: %v", err)
	}
	if !mr.Resumed {
		t.Fatalf("move retry answered %+v, want Resumed=true — the interrupted hand-off must resume, not restart", mr)
	}
	got := captureTopic(t, servers[1], name)
	if got == nil || got.batches != want.batches || got.draws != want.draws {
		t.Fatalf("target serves %+v after the resumed hand-off, want position (%d,%d)", got, want.batches, want.draws)
	}
	// And the source's leftovers are gone: a second retry has nothing to
	// resume and routes to the target, which refuses the self-move.
	if s0b.store.HasSnapshot(name) {
		t.Fatal("the resumed hand-off left the source's snapshot behind")
	}
	if rec := matrixServe(t, s0b, "POST", "/v1/topics/"+name+"/batches", degradeBatch(50)); rec.Code != http.StatusOK {
		t.Fatalf("batch after resume: %d %s", rec.Code, rec.Body.String())
	}
}

// TestMoveResumeRepointSyncsDir: resuming an interrupted hand-off onto a
// different target than first recorded re-points the tombstone — a rename
// like every other, so the directory must be fsynced after it or a power
// cut can bring the old target back. The resume is crashed at its first
// directory fsync; by then the tombstone's rename must have happened.
func TestMoveResumeRepointSyncsDir(t *testing.T) {
	tc := newTestCluster(t, 3, serverOptions{journal: store.Options{Every: 4, MaxBytes: 8 << 20}}, true)
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
		matrixServe(t, tc.shards[src].srv, "POST", "/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(second)})
	}()
	if !crashed {
		t.Fatal("the resumed hand-off re-pointed its tombstone without ever fsyncing the directory")
	}
	if got := script.Hits("tombstone.rename"); got != renames+1 {
		t.Fatalf("the directory fsync came after %d tombstone renames, want exactly 1 before it", got-renames)
	}
}

// setupMoveCluster builds a two-shard cluster whose source shard writes
// through a fresh script, creates a topic the ring places on the source,
// and feeds it two batches. Returned ready for a hand-off to urls[1].
func setupMoveCluster(t *testing.T) (*fault.Script, string, [2]*server, [2]string, [2]*shardHandler, string) {
	t.Helper()
	handlers := [2]*shardHandler{{}, {}}
	var urls [2]string
	for i := range handlers {
		hs := httptest.NewServer(handlers[i])
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
		matrixShards.Store(hs.URL, handlers[i])
		t.Cleanup(func() { matrixShards.Delete(hs.URL) })
	}
	script := fault.NewScript()
	fss := [2]fault.FS{script, nil}
	var servers [2]*server
	srcDir := ""
	for i := range servers {
		cc, err := newClusterConfig(urls[i], strings.Join(urls[:], ","), 32)
		if err != nil {
			t.Fatalf("cluster config %d: %v", i, err)
		}
		dir := t.TempDir()
		if i == 0 {
			srcDir = dir
		}
		s, err := newServer(dir, serverOptions{journal: matrixJournalOpts(), cluster: cc, fs: fss[i]}, t.Logf)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		t.Cleanup(s.Close)
		servers[i] = s
		handlers[i].swap(s)
	}
	name := ""
	for i := 0; i < 100; i++ {
		n := fmt.Sprintf("mv%02d", i)
		if servers[0].cluster.ring.Owner(n) == urls[0] {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatal("no topic name owned by shard 0")
	}
	if rec := matrixServe(t, servers[0], "POST", "/v1/topics", degradeCreateReq(name)); rec.Code != http.StatusCreated {
		t.Fatalf("create %s: %d %s", name, rec.Code, rec.Body.String())
	}
	for day := 1; day <= 2; day++ {
		if rec := matrixServe(t, servers[0], "POST", "/v1/topics/"+name+"/batches", degradeBatch(day)); rec.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", day, rec.Code, rec.Body.String())
		}
	}
	return script, srcDir, servers, urls, handlers, name
}

// replicaMatrixServer builds a follower whose replica files go through
// fs, with fake ring peers (the replica wire is driven by hand, so no
// peer has to exist). Background machinery stays off.
func replicaMatrixServer(t *testing.T, dir string, fs fault.FS) *server {
	t.Helper()
	self := "http://self.test:8547"
	peer := "http://peer.test:8547"
	cc, err := newClusterConfig(self, self+","+peer, 32)
	if err != nil {
		t.Fatalf("newClusterConfig: %v", err)
	}
	s, err := newServer(dir, serverOptions{
		journal: matrixJournalOpts(),
		cluster: cc,
		repl:    &replOptions{Factor: 2, ProbeInterval: time.Hour},
		fs:      fs,
	}, t.Logf)
	if err != nil {
		t.Fatalf("replica server over %s: %v", dir, err)
	}
	return s
}

func replicaMatrixSnap() []byte {
	return []byte("crash-matrix replica base snapshot — opaque to the follower")
}

func replicaMatrixCRC() uint32 {
	return codec.Checksum(replicaMatrixSnap())
}

// shipReplicaFrames drives the follower through a base install at
// (1,10) and incremental tails to (2,20) and (3,30), returning the
// highest acked batch count and the scripted crash, if one fired.
func shipReplicaFrames(t *testing.T, s *server) (acked int, crash *fault.Crash) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			c, ok := fault.AsCrash(r)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	src := "http://peer.test:8547"
	crc := replicaMatrixCRC()
	frames := []*codec.ReplAppend{
		{Source: src, Epoch: 0, SnapCRC: crc,
			BaseBatches: 1, BaseRandDraws: 10, Batches: 1, RandDraws: 10,
			Snapshot: replicaMatrixSnap()},
		{Source: src, Epoch: 0, SnapCRC: crc,
			Batches: 2, RandDraws: 20, Tail: tailFrame(t, 2, 2, 20)},
		{Source: src, Epoch: 0, SnapCRC: crc,
			Batches: 3, RandDraws: 30, Tail: tailFrame(t, 3, 3, 30)},
	}
	for _, fr := range frames {
		body := bytes.NewReader(codec.AppendReplAppend(nil, fr))
		req := httptest.NewRequest("POST", "/v1/replica/"+mxTopic+"/append", body)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("replica frame to (%d,%d): %d %s", fr.Batches, fr.RandDraws, rec.Code, rec.Body.String())
		}
		acked = int(fr.Batches)
	}
	return acked, nil
}
