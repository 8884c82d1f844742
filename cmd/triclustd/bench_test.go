package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triclust/internal/store"
)

// benchUsers / benchVocab shape the benchmark topic: a large user
// universe whose history the topic retains forever (the O(state) part a
// snapshot rewrites every time) against a small constant per-batch load
// (the O(batch) part a journal record captures). This is the regime long
// streams converge to: state grows without bound, batches do not.
const (
	benchUsers = 20000
	benchVocab = 400
)

// benchDaemon boots a persistent daemon and warms one topic: a frozen
// vocabulary and one wide batch giving every user recorded history.
func benchDaemon(b *testing.B, opts store.Options) (*server, *httptest.Server, *int) {
	b.Helper()
	s := serve(b, b.TempDir(), serverOptions{journal: opts}, false)
	srv := front(b, s)
	client := srv.Client()

	users := make([]string, benchUsers)
	for i := range users {
		users[i] = fmt.Sprintf("user%05d", i)
	}
	req := createTopicRequest{
		Name:    "bench",
		Users:   users,
		Options: topicOptions{MaxIter: 1, Seed: 1, MinDF: 1},
	}
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		b.Fatalf("create: status %d err %v", r.code, r.err)
	}
	words := make([][]string, 1)
	for i := 0; i < benchVocab; i++ {
		words[0] = append(words[0], benchWord(i))
	}
	vr := vocabRequest{Docs: words, Freeze: true}
	if r := call(nil, client, "POST", srv.URL+"/v1/topics/bench/vocab", vr, nil); r.err != nil || r.code != http.StatusOK {
		b.Fatalf("vocab: status %d err %v", r.code, r.err)
	}
	// One wide batch: every user tweets once, so every user carries
	// history the snapshot must serialize from now on.
	if r := call(nil, client, "POST", srv.URL+"/v1/topics/bench/batches",
		benchWideBatch(0), nil); r.err != nil || r.code != http.StatusOK {
		b.Fatalf("wide warm batch: status %d err %v", r.code, r.err)
	}
	day := 1
	for ; day < 3; day++ {
		if r := call(nil, client, "POST", srv.URL+"/v1/topics/bench/batches", benchBatch(day), nil); r.err != nil || r.code != http.StatusOK {
			b.Fatalf("warm batch %d: status %d err %v", day, r.code, r.err)
		}
	}
	return s, srv, &day
}

func benchWord(i int) string { return fmt.Sprintf("word%04d", i) }

// benchWideBatch is one day of the paper's regime: every user tweets,
// so the solve + persistence of the batch is O(users) work — the
// write-side span a reader used to queue behind.
func benchWideBatch(day int) batchRequest {
	tweets := make([]tweetSpec, 0, benchUsers)
	for u := 0; u < benchUsers; u++ {
		tweets = append(tweets, tweetSpec{
			Tokens: []string{benchWord((u + day) % benchVocab), benchWord((u*3 + day) % benchVocab)},
			User:   u,
		})
	}
	return batchRequest{Time: day, Tweets: tweets}
}

// benchBatch is a small constant-shape batch: the per-batch work a
// steady stream pays, dwarfed by full-state snapshots.
func benchBatch(day int) batchRequest {
	var tweets []tweetSpec
	for i := 0; i < 4; i++ {
		tweets = append(tweets, tweetSpec{
			Tokens: []string{
				benchWord((day*17 + i*5) % benchVocab),
				benchWord((day*13 + i*7 + 1) % benchVocab),
				benchWord((day*11 + i*3 + 2) % benchVocab),
			},
			User: (i*19 + day) % benchUsers,
		})
	}
	return batchRequest{Time: day, Tweets: tweets}
}

// BenchmarkDaemonBatchPersist measures the full POST /batches path of a
// durable daemon — solve plus persistence — at the default cadence: one
// O(batch) journal record per batch, a compaction every 64. Run with
// -benchtime 500x for the 500-batch stream recorded in ROADMAP.md.
func BenchmarkDaemonBatchPersist(b *testing.B) {
	// Note for bench-parsing tools: sub-benchmark names must not end in
	// digits (the GOMAXPROCS suffix is only appended on multi-core
	// runners, so a trailing number would be ambiguous).
	b.Run("journal-amortized", func(b *testing.B) {
		_, srv, day := benchDaemon(b, store.Options{})
		client := srv.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := call(nil, client, "POST", srv.URL+"/v1/topics/bench/batches", benchBatch(*day), nil)
			if r.err != nil || r.code != http.StatusOK {
				b.Fatalf("batch %d: status %d err %v", *day, r.code, r.err)
			}
			*day++
		}
	})
}

// BenchmarkReadsUnderIngest measures concurrent read latency against a
// topic under continuous ingest — the regime the RCU read plane exists
// for. A background goroutine keeps POSTing batches (solve + journal +
// periodic full-state compaction) while parallel readers poll the
// user-estimate endpoint; reported are ns/op (read throughput), the p99
// and worst-case read latencies, and how many batches ingest landed
// inside the measurement window.
//
// Both variants issue the identical request through the full ServeHTTP
// path, so they pay the same routing and encoding costs. rcu-view is
// the shipping path: the handler answers from the published view and
// takes no lock. topic-locked restores the pre-view serialization by
// wrapping the same request in the daemon's per-topic mutex — the one
// ingest holds across solve + persistence — so a read queues behind
// whatever write (and whatever compaction) is in flight, exactly as it
// did when estimates were read from the solver under its lock.
func BenchmarkReadsUnderIngest(b *testing.B) {
	type variant struct {
		name   string
		locked bool
	}
	for _, v := range []variant{{"rcu-view", false}, {"topic-locked", true}} {
		b.Run(v.name, func(b *testing.B) {
			// Every: 1 compacts on every batch: each one holds the topic
			// lock across the solve, the journal append AND the O(state)
			// snapshot encode + fsync — the longest span the write path
			// ever serializes — so the lock is held for most of the
			// measurement window.
			s, _, day := benchDaemon(b, store.Options{Every: 1})

			// Continuous ingest until the readers are done.
			stop := make(chan struct{})
			ingestDone := make(chan error, 1)
			var ingested atomic.Int64
			go func() {
				defer close(ingestDone)
				for {
					select {
					case <-stop:
						return
					default:
					}
					r := call(nil, s, "POST", "/v1/topics/bench/batches", benchBatch(*day), nil)
					*day++
					if r.err != nil {
						ingestDone <- r.err
						return
					}
					if r.code != http.StatusOK {
						ingestDone <- fmt.Errorf("ingest batch: status %d: %s", r.code, r.body)
						return
					}
					ingested.Add(1)
				}
			}()

			s.mu.RLock()
			benchTp := s.topics["bench"]
			s.mu.RUnlock()

			var mu sync.Mutex
			var lats []time.Duration
			b.SetParallelism(8) // 8 readers per core: polls queue, like real clients
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				local := make([]time.Duration, 0, 4096)
				w := &nullResponseWriter{h: make(http.Header)}
				u := 0
				for pb.Next() {
					u = (u + 7919) % benchUsers
					req := httptest.NewRequest("GET", fmt.Sprintf("/v1/topics/bench/users/%d", u), nil)
					start := time.Now()
					if v.locked {
						benchTp.mu.Lock()
						s.ServeHTTP(w, req)
						benchTp.mu.Unlock()
					} else {
						s.ServeHTTP(w, req)
					}
					local = append(local, time.Since(start))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			})
			b.StopTimer()
			close(stop)
			if err := <-ingestDone; err != nil {
				b.Fatal(err)
			}
			if len(lats) > 0 {
				// The lock shows up as few-but-enormous stalls (one queue
				// of readers per in-flight batch), so the percentile AND
				// the worst case are both reported: p99 demonstrates the
				// steady poll latency stays flat, max-ns exposes how long
				// a reader can be stuck behind a solve + snapshot fsync.
				// batches counts ingest landed while readers ran: under
				// the lock, blocked readers also hand the writer the CPU,
				// so the serialization inflates it — that asymmetry is
				// part of the finding, not noise.
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				b.ReportMetric(float64(lats[len(lats)*99/100].Nanoseconds()), "p99-ns")
				b.ReportMetric(float64(lats[len(lats)-1].Nanoseconds()), "max-ns")
				b.ReportMetric(float64(ingested.Load()), "batches")
			}
		})
	}
}
