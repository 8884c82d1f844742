package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"triclust"
	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/store"
)

// server is the HTTP façade over a registry of named, durable topics.
// Registry lookups take the read lock; create/restore/delete take the
// write lock. Each topic serializes its own batch processing with a
// per-topic mutex, so batches for independent topics are solved
// concurrently. With a data directory configured, every state-changing
// operation is durable before it is acknowledged (see persist.go), so a
// restarted daemon resumes exactly where it stopped.
type server struct {
	// mu guards the registry (topics, moved) and orders spawn against
	// Close.
	mu     sync.RWMutex
	topics map[string]*topic
	// moved records topics this shard handed off to another shard
	// (tombstones): the ownership epoch they left at and where they went.
	// Guarded by mu, persisted by the store when a data directory is
	// configured. A name is never in both topics and moved
	// visibility-wise: while a hand-off is in flight the registry entry
	// wins (lookups serve it until the move commits).
	moved map[string]cluster.Tombstone
	store *store.Store // nil: in-memory only
	logf  func(format string, args ...any)
	mux   *http.ServeMux
	// cluster is non-nil when the daemon runs as one shard of a
	// consistent-hash cluster (see cluster.go); nil preserves the exact
	// single-process behavior.
	cluster *clusterConfig
	// peers carries every request to another shard (peer.go); non-nil
	// exactly when cluster is.
	peers *peerClient
	// repl is non-nil when -replication-factor >= 2: this shard ships its
	// topics' journals to ring successors and holds cold replicas for
	// peers (see repl.go).
	repl *replicator
	// storage runs the disk-degraded state machine (see degrade.go);
	// non-nil exactly when store is.
	storage *storageMonitor
	// maxBody bounds every request body; 0 selects defaultMaxBody.
	maxBody int64

	// reads / notModified count read-plane requests and If-None-Match
	// hits (see readplane.go); atomic because the read path takes no lock.
	reads       atomic.Uint64
	notModified atomic.Uint64

	// conform is the shard-wide -conform-mode policy, stamped onto every
	// topic this server serves; conformRejected counts enforce-mode batch
	// rejections (which leave no durable trace — see conform.go).
	conform         triclust.ConformanceMode
	conformRejected atomic.Uint64

	// ctx, cancel and wg are the daemon's one background lifetime: every
	// goroutine besides the listener starts through spawn, every
	// inter-shard request runs under ctx, and Close cancels it and waits.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sleep  cluster.Sleep // serverOptions.sleep: every wait of the lifetime
}

type topic struct {
	name    string
	created time.Time

	mu sync.Mutex // serializes Process + persistence + deletion
	// engp holds the engine. All mutations happen under mu, but the
	// pointer itself is atomic because the lock-free read plane loads
	// it without mu while reloadFromDisk may be swapping in an engine
	// reloaded from disk (the rollback path). Access via eng().
	engp atomic.Pointer[triclust.Topic]
	// disk is the topic's durable side — its open batch journal and its
	// claim on the snapshot file (see store.Handle); nil without a data
	// directory. The journal is guarded by mu.
	disk *store.Handle
	// state is the topic's one condition (topicStates, degrade.go) and
	// storFails its consecutive durable-write failure count. Both change
	// only under mu; atomic so admit, the read plane and healthz check
	// them without the topic lock.
	state     atomic.Int32
	storFails atomic.Int32
	// feat caches the encoded /features response for the current read
	// view's ETag (see readplane.go); lock-free like the view itself.
	feat atomic.Pointer[cachedRead]
	// lastViol is the topic's most recent flagged/quarantined verdict,
	// for the healthz conformance census (see conform.go). Atomic so
	// healthz reads it without the topic lock.
	lastViol atomic.Pointer[violationJSON]
}

// serverOptions bundle the daemon's tunables beyond the data directory:
// journaling cadence, the request-body bound, and — when the daemon runs
// as one shard of a cluster — the placement configuration.
type serverOptions struct {
	journal store.Options
	// maxBody bounds every request body in bytes (0: defaultMaxBody).
	maxBody int64
	// cluster enables sharded routing; nil runs single-process.
	cluster *clusterConfig
	// peer tunes inter-shard traffic (cluster mode only).
	peer peerOptions
	// repl enables journal-shipped replication (nil or Factor < 2: off).
	// Requires cluster mode and a data directory.
	repl *replOptions
	// conform is the -conform-mode policy for every topic this shard
	// serves (zero value: off).
	conform triclust.ConformanceMode
	// fs is the filesystem every durable write goes through (nil:
	// fault.OS). Tests inject a fault.Script here to exercise crash
	// points and degraded mode.
	fs fault.FS
	// storage tunes the disk-degraded state machine (see degrade.go).
	storage storageOptions
	// sleep is every wait of the loops and retries (nil: cluster.WallSleep);
	// tests inject a fault.Clock's to step the loops a round at a time.
	sleep cluster.Sleep
}

// newServer builds the registry, restoring every snapshot found under
// dataDir (empty dataDir disables persistence), replaying each topic's
// journal tail and opening its journal (see openJournal). Hand-off
// tombstones are reloaded alongside the snapshots; a topic with both a
// snapshot and a tombstone was caught mid-move and is held back from
// serving until the move is retried (see resumeMove).
func newServer(dataDir string, opts serverOptions, logf func(format string, args ...any)) (*server, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	st, err := store.Open(dataDir, opts.journal, opts.fs, logf)
	if err != nil {
		return nil, err
	}
	s := &server{
		topics:  make(map[string]*topic),
		moved:   make(map[string]cluster.Tombstone),
		store:   st,
		logf:    logf,
		cluster: opts.cluster,
		maxBody: opts.maxBody,
		conform: opts.conform,
		sleep:   opts.sleep,
	}
	if s.sleep == nil {
		s.sleep = cluster.WallSleep
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if st != nil {
		s.storage = newStorageMonitor(s, opts.storage)
	}
	if opts.cluster != nil {
		s.peers = newPeerClient(opts.peer, s.sleep)
	}
	replicated := opts.repl != nil && opts.repl.Factor >= 2
	if replicated && opts.cluster == nil {
		return nil, errors.New("-replication-factor needs cluster mode (-peers and -self)")
	}
	if replicated && st == nil {
		return nil, errors.New("-replication-factor needs a -data-dir (cold replicas live on disk)")
	}
	found, err := st.Scan(replicated)
	if err != nil {
		return nil, err
	}
	for name, ts := range found.Tombstones {
		s.moved[name] = ts
		if _, pending := found.Topics[name]; pending {
			// The daemon crashed between writing the hand-off intent and
			// deleting the topic's files: the tombstone fences writes, the
			// snapshot stays for a move retry.
			delete(found.Topics, name)
			s.logf("topic %q has an interrupted hand-off to %s (epoch %d); refusing writes until the move is retried",
				name, ts.Target, ts.Epoch)
		}
	}
	for name, rt := range found.Topics {
		// Journal replay (inside the scan) ran without a conformance mode:
		// recorded batches were already accepted once, so replay must
		// redo them regardless of today's policy. newTopic stamps the mode
		// for new batches only, from here on.
		tp := s.newTopic(name, rt.Topic, true)
		s.topics[name] = tp
		s.logf("restored topic %q (%d batches, %d users; %d journal records replayed)",
			name, rt.Topic.Batches(), rt.Topic.Users(), rt.Replayed)
		tp.mu.Lock()
		s.openJournal(tp, rt)
		tp.mu.Unlock()
	}
	if replicated {
		// The scan kept the replicas it loaded; one that failed its own
		// consistency checks was skipped (and counted) — the primary
		// re-ships a fresh base on its next contact.
		s.repl = newReplicator(s, *opts.repl)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/healthz", s.handle(s.healthz))
	mux.HandleFunc("POST /v1/topics", s.handle(s.createTopic))
	mux.HandleFunc("GET /v1/topics", s.handle(s.listTopics))
	mux.HandleFunc("GET /v1/topics/{topic}", s.handle(s.topicInfo))
	mux.HandleFunc("PUT /v1/topics/{topic}", s.handle(s.restoreTopic))
	mux.HandleFunc("DELETE /v1/topics/{topic}", s.handle(s.deleteTopic))
	mux.HandleFunc("POST /v1/topics/{topic}/batches", s.handle(s.processBatch))
	mux.HandleFunc("POST /v1/topics/{topic}/vocab", s.handle(s.warmupVocab))
	mux.HandleFunc("GET /v1/topics/{topic}/users/{user}", s.handle(s.userEstimate))
	mux.HandleFunc("GET /v1/topics/{topic}/snapshot", s.handle(s.exportSnapshot))
	mux.HandleFunc("GET /v1/topics/{topic}/features", s.handle(s.featureSentiments))
	mux.HandleFunc("POST /v1/cluster/move", s.handle(s.moveTopic))
	mux.HandleFunc("GET /v1/cluster/info", s.handle(s.clusterInfo))
	mux.HandleFunc("POST /v1/replica/{topic}/append", s.handle(s.replicaAppend))
	mux.HandleFunc("DELETE /v1/replica/{topic}", s.handle(s.replicaDrop))
	s.mux = mux
	return s, nil
}

// start launches the server's background machinery — the failure
// detector's probe loops, the reconcile loop and the optional rebalancer.
// Kept out of newServer so construction stays side-effect-free (tests that
// never exercise replication need no goroutines).
func (s *server) start() {
	if s.repl != nil {
		s.repl.start()
	}
}

// spawn runs fn on a goroutine Close waits for; once Close has begun it
// starts nothing. fn returns when s.ctx ends.
func (s *server) spawn(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// Close ends the background lifetime: spawn refuses from here on, every
// spawned goroutine is waited for, and the replica journal handles are
// released. Idempotent; a server that was never started closes cleanly.
func (s *server) Close() {
	s.mu.Lock()
	s.cancel()
	s.mu.Unlock()
	s.wg.Wait()
	s.store.Close()
}

// defaultMaxBody bounds every request body (JSON and snapshot uploads)
// when -max-body-bytes is not set, so a hostile client cannot make the
// daemon buffer gigabytes.
const defaultMaxBody = 256 << 20

func (s *server) maxBodyBytes() int64 {
	if s.maxBody > 0 {
		return s.maxBody
	}
	return defaultMaxBody
}

// ServeHTTP routes the versioned API.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes())
	}
	s.mux.ServeHTTP(w, r)
}

// healthResponse is the body of GET /v1/healthz: liveness plus the
// numbers an operator (or the cluster test harness) needs to decide a
// shard is ready — how many topics it serves and how many data-dir files
// startup had to quarantine or skip instead of loading.
type healthResponse struct {
	Status string `json:"status"`
	Topics int    `json:"topics"`
	// Quarantined counts startup files that could not be served:
	// quarantined snapshots/journals plus unreadable strays. Non-zero
	// means an operator should inspect the data directory; before this
	// counter existed, quarantine was silent unless you listed the files.
	Quarantined int            `json:"quarantined"`
	Cluster     *clusterHealth `json:"cluster,omitempty"`
	// Degraded lists topics whose last durable write failed (their next
	// one has yet to succeed) or whose storage is degraded/parked — the
	// same per-topic state the storage section reports, so the two cannot
	// disagree. Non-empty flips Status to "degraded".
	Degraded []string `json:"degraded,omitempty"`
	// Replication reports the shard's replication state (factor, down
	// peers, held replicas, per-follower shipping lag); absent when
	// replication is off.
	Replication *replicationHealth `json:"replication,omitempty"`
	// Storage reports the disk-degraded state machine: which topics are
	// read-only or parked, the shard-level read-only switch, and the
	// failure/probe/recovery counters (see degrade.go). Absent without a
	// data directory.
	Storage *storageHealth `json:"storage,omitempty"`
	// ReadPlane reports lock-free read-path traffic (total reads, 304
	// revalidation hits) and the convergence-state census of the served
	// topics (see readplane.go).
	ReadPlane *readPlaneHealth `json:"read_plane"`
	// Conformance reports the shard's conformance mode, enforce-mode
	// rejection count, and the per-topic drift census (see conform.go).
	Conformance *conformanceHealth `json:"conformance"`
}

type clusterHealth struct {
	Self        string   `json:"self"`
	Peers       []string `json:"peers"`
	Vnodes      int      `json:"vnodes"`
	MovedTopics int      `json:"moved_topics"`
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) *apiError {
	served := s.served()
	var degraded []string
	for _, tp := range served {
		if tp.storFails.Load() != 0 || !topicStates[tp.state.Load()].writable {
			degraded = append(degraded, tp.name)
		}
	}
	resp := healthResponse{
		Status:      "ok",
		Topics:      len(served),
		ReadPlane:   s.readPlaneHealth(served),
		Conformance: s.conformanceHealth(served),
	}
	if len(degraded) > 0 {
		sort.Strings(degraded)
		resp.Status = "degraded"
		resp.Degraded = degraded
	}
	resp.Quarantined = s.store.Quarantined()
	if sh := s.storage.health(served); sh != nil {
		resp.Storage = sh
		if sh.State != "ok" {
			resp.Status = "degraded"
		}
	}
	if c := s.cluster; c != nil {
		s.mu.RLock()
		resp.Cluster = &clusterHealth{
			Self:        c.self,
			Peers:       c.ring.Peers(),
			Vnodes:      c.ring.VirtualNodes(),
			MovedTopics: len(s.moved),
		}
		s.mu.RUnlock()
	}
	if rp := s.repl; rp != nil {
		resp.Replication = rp.health()
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// ——— wire types ———

type topicOptions struct {
	K          int      `json:"k,omitempty"`
	Alpha      *float64 `json:"alpha,omitempty"`
	Beta       *float64 `json:"beta,omitempty"`
	Gamma      *float64 `json:"gamma,omitempty"`
	Tau        *float64 `json:"tau,omitempty"`
	Window     int      `json:"window,omitempty"`
	MaxIter    int      `json:"max_iter,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	MinDF      int      `json:"min_df,omitempty"`
	LexiconHit float64  `json:"lexicon_hit,omitempty"`
}

func (o topicOptions) onlineConfig() triclust.OnlineConfig {
	cfg := triclust.DefaultOnlineConfig()
	if o.K != 0 {
		cfg.K = o.K
	}
	if o.Alpha != nil {
		cfg.Alpha = *o.Alpha
	}
	if o.Beta != nil {
		cfg.Beta = *o.Beta
	}
	if o.Gamma != nil {
		cfg.Gamma = *o.Gamma
	}
	if o.Tau != nil {
		cfg.Tau = *o.Tau
	}
	if o.Window != 0 {
		cfg.Window = o.Window
	}
	if o.MaxIter != 0 {
		cfg.MaxIter = o.MaxIter
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

type createTopicRequest struct {
	Name string `json:"name"`
	// Users is the fixed user universe; tweets refer to users by index.
	Users   []string     `json:"users"`
	Options topicOptions `json:"options"`
}

type topicSummary struct {
	Name        string           `json:"name"`
	Created     time.Time        `json:"created"`
	Users       int              `json:"users"`
	Batches     int              `json:"batches"`
	Skipped     int              `json:"skipped"`
	KnownUsers  int              `json:"known_users"`
	VocabSize   int              `json:"vocab_size"`
	Frozen      bool             `json:"frozen"`
	LastTime    *int             `json:"last_time,omitempty"`
	Convergence *convergenceJSON `json:"convergence,omitempty"`
}

type tweetSpec struct {
	Text      string   `json:"text,omitempty"`
	Tokens    []string `json:"tokens,omitempty"`
	User      int      `json:"user"`
	Time      *int     `json:"time,omitempty"`       // default: the batch time
	RetweetOf *int     `json:"retweet_of,omitempty"` // batch-local index; default none
}

type batchRequest struct {
	Time   int         `json:"time"`
	Tweets []tweetSpec `json:"tweets"`
}

type sentimentJSON struct {
	Class      int     `json:"class"`
	ClassName  string  `json:"class_name"`
	Confidence float64 `json:"confidence"`
}

type userSentimentJSON struct {
	User int `json:"user"`
	sentimentJSON
}

type batchResponse struct {
	Time       int                 `json:"time"`
	Skipped    bool                `json:"skipped"`
	Iterations int                 `json:"iterations"`
	Converged  bool                `json:"converged"`
	Tweets     []sentimentJSON     `json:"tweets"`
	Users      []userSentimentJSON `json:"users"`
	// Conformance is the batch's verdict against the topic's learned
	// stream profile; present in flag/enforce mode once the profile has
	// warmed up.
	Conformance *verdictJSON `json:"conformance,omitempty"`
}

type vocabRequest struct {
	// Texts are warmed up through the topic's tokenizer; Docs are
	// pre-tokenized documents. Both may be given.
	Texts []string   `json:"texts,omitempty"`
	Docs  [][]string `json:"docs,omitempty"`
	// Freeze fixes the vocabulary right after folding the documents in.
	Freeze bool `json:"freeze,omitempty"`
}

type vocabResponse struct {
	Frozen    bool `json:"frozen"`
	VocabSize int  `json:"vocab_size"`
}

type featuresResponse struct {
	Vocabulary  []string         `json:"vocabulary"`
	Features    []sentimentJSON  `json:"features"`
	Convergence *convergenceJSON `json:"convergence,omitempty"`
}

// ——— handlers ———

// endpoint is one route's handler: it writes its response and returns
// nil, or returns the refusal for fail to write.
type endpoint func(w http.ResponseWriter, r *http.Request) *apiError

func (s *server) handle(h endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e := h(w, r); e != nil {
			s.fail(w, e)
		}
	}
}

// readBody buffers a request body (already bounded by -max-body-bytes in
// ServeHTTP), so an oversized upload maps to 413 body_too_large before
// any decoder sees it.
func readBody(r *http.Request) ([]byte, *apiError) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return nil, bodyError(err)
	}
	return buf.Bytes(), nil
}

func (s *server) createTopic(w http.ResponseWriter, r *http.Request) *apiError {
	if _, e := requireMediaType(r, mediaTypeJSON); e != nil {
		return e
	}
	// The topic name lives in the body, so routing needs the body decoded
	// first.
	body, e := readBody(r)
	if e != nil {
		return e
	}
	var req createTopicRequest
	if err := decodeStrict(body, &req); err != nil {
		return errf(http.StatusBadRequest, codeInvalidRequest, "decode: %w", err)
	}
	if err := store.ValidTopicName(req.Name); err != nil {
		return errf(http.StatusBadRequest, codeInvalidName, "%w", err)
	}
	if _, here := s.routeTopic(w, r, req.Name); !here {
		return nil
	}
	if e := s.admit(nil, opWrite); e != nil {
		return e
	}
	if len(req.Users) == 0 {
		return errf(http.StatusBadRequest, codeInvalidRequest, "missing user universe")
	}
	users := make([]triclust.User, len(req.Users))
	for i, name := range req.Users {
		users[i] = triclust.User{Name: name, Label: triclust.NoLabel}
	}
	tr, err := triclust.NewTopic(users,
		triclust.WithSolverConfig(req.Options.onlineConfig()),
		triclust.WithMinDF(req.Options.MinDF),
		triclust.WithLexiconHit(req.Options.LexiconHit))
	if err != nil {
		return errf(http.StatusBadRequest, codeInvalidConfig, "%w", err)
	}
	return s.install(w, req.Name, tr, 0)
}

// restoreTopic implements PUT /v1/topics/{topic}: the request body is a
// binary snapshot (from GET …/snapshot or triclust.Topic.Snapshot); the
// topic resumes exactly where the snapshot was taken. In cluster mode the
// same endpoint is the hand-off installation path: a move's PUT carries
// the handoff header, which pins the topic to this shard regardless of
// ring placement. Either way the snapshot's ownership epoch must beat any
// tombstone this shard holds for the name.
func (s *server) restoreTopic(w http.ResponseWriter, r *http.Request) *apiError {
	if _, e := requireMediaType(r, mediaTypeSnapshot); e != nil {
		return e
	}
	name := r.PathValue("topic")
	if err := store.ValidTopicName(name); err != nil {
		return errf(http.StatusBadRequest, codeInvalidName, "%w", err)
	}
	// Routing comes first: a snapshot sent to the wrong shard is redirected
	// before it is buffered here.
	if _, here := s.routeTopic(w, r, name); !here {
		return nil
	}
	// The body is buffered (bounded by -max-body-bytes) so an oversized
	// upload maps to 413 instead of a generic snapshot-corruption error.
	body, e := readBody(r)
	if e != nil {
		return e
	}
	if e := s.admit(nil, opWrite); e != nil {
		return e
	}
	tr, err := triclust.Restore(bytes.NewReader(body))
	if err != nil {
		return errf(http.StatusBadRequest, snapshotErrorCode(err), "%w", err)
	}
	return s.install(w, name, tr, tr.Epoch())
}

// install is the shared tail of create and restore: the engine becomes a
// registered topic under this shard's conformance policy, durable (first
// snapshot + open journal) before the 201.
func (s *server) install(w http.ResponseWriter, name string, tr *triclust.Topic, epoch uint64) *apiError {
	tp := s.newTopic(name, tr, false)
	tp.mu.Lock()
	e := s.persistNew(tp, epoch)
	if e == nil {
		// Seed the topic's followers with its base snapshot before the 201:
		// a replicated topic's creation ack implies RF copies exist (or a
		// follower recorded out of sync, for the reconcile loop). Only a
		// fencing verdict fails the request — this shard learned it does
		// not own the name after all.
		e = s.replShip(tp, nil, false)
	}
	tp.mu.Unlock()
	if e != nil {
		return e
	}
	writeJSON(w, http.StatusCreated, tp.summary())
	return nil
}

// newTopic wraps an engine for registration under name, stamped with this
// shard's conformance policy. saved says the start-up scan loaded it from
// its snapshot on disk (see store.Handle).
func (s *server) newTopic(name string, tr *triclust.Topic, saved bool) *topic {
	tr.SetConformanceMode(s.conform)
	tp := &topic{name: name, created: time.Now().UTC(), disk: s.store.Handle(name, saved)}
	tp.engp.Store(tr)
	return tp
}

// persistNew is the durable-or-retire step every new topic takes (create,
// restore, promotion): register tp at epoch, then write its first snapshot
// and open its journal. A registered topic must be durable when -data-dir
// is set, so a failed save retires it again and fails with storage_error.
// The caller holds tp.mu from before the registration, so no request
// reaches the topic until the step is decided.
func (s *server) persistNew(tp *topic, epoch uint64) *apiError {
	if e := s.tryRegister(tp, epoch); e != nil {
		return e
	}
	if err := s.saveIfCurrent(tp); err != nil {
		s.retire(tp)
		// With this topic unregistered, any snapshot file left on disk
		// belongs to an earlier, deleted incarnation of the name (the
		// name was free when this topic registered): drop it so the
		// failed create cannot resurrect that topic on restart.
		s.dropRetired(tp.name)
		return errf(http.StatusInternalServerError, codeStorage, "topic not persisted: %w", err)
	}
	return nil
}

// tryRegister installs a topic in the registry, failing with 409 and a
// stable code if the name is taken or if a hand-off tombstone fences the
// topic's epoch. epoch is the ownership epoch the topic arrives with (0
// for a fresh create): a shard that handed the topic away at epoch E
// accepts it back only at a strictly greater epoch, so a stale pre-move
// snapshot can never resurrect forked state. Registering at a valid
// epoch clears the tombstone — the topic legitimately lives here again.
func (s *server) tryRegister(tp *topic, epoch uint64) *apiError {
	s.mu.Lock()
	mv, wasMoved := s.moved[tp.name]
	if wasMoved && epoch <= mv.Epoch {
		s.mu.Unlock()
		return errf(http.StatusConflict, codeEpochMismatch,
			"topic %q was handed off to %s at epoch %d; refusing state at epoch %d",
			tp.name, mv.Target, mv.Epoch, epoch)
	}
	if _, exists := s.topics[tp.name]; exists {
		s.mu.Unlock()
		return errf(http.StatusConflict, codeTopicExists, "topic %q already exists", tp.name)
	}
	s.topics[tp.name] = tp
	delete(s.moved, tp.name)
	s.mu.Unlock()
	if wasMoved {
		if err := s.store.ClearTombstone(tp.name); err != nil {
			s.logf("remove tombstone %q: %v", tp.name, err)
		}
	}
	return nil
}

// lookup resolves the request's topic, routing it to the owning shard
// first in cluster mode. A nil topic means the request ends here: with the
// returned refusal, or — redirected to the shard that owns the topic —
// with the response already written.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*topic, *apiError) {
	name := r.PathValue("topic")
	tp, here := s.routeTopic(w, r, name)
	if here && tp == nil {
		return nil, errf(http.StatusNotFound, codeTopicNotFound, "unknown topic %q", name)
	}
	return tp, nil
}

func (s *server) listTopics(w http.ResponseWriter, r *http.Request) *apiError {
	topics := s.served()
	out := make([]topicSummary, len(topics))
	for i, tp := range topics {
		out[i] = tp.summary()
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

func (s *server) deleteTopic(w http.ResponseWriter, r *http.Request) *apiError {
	tp, e := s.lookup(w, r)
	if tp == nil {
		return e
	}
	// Retire the topic under its own lock, so an in-flight batch finishes
	// first and every request queued behind it finds the topic retired.
	// Of two racing DELETEs exactly one retires it.
	tp.mu.Lock()
	retired := s.retire(tp)
	tp.mu.Unlock()
	if !retired {
		return s.refuse(w, r, tp.name, s.admit(tp, opRead))
	}
	// Remove the deleted topic's snapshot file. A save racing this
	// delete re-checks the registry under the same per-name lock, so it
	// either belongs to this (now unregistered) topic and is skipped, or
	// to a re-created topic whose own save marks its file current.
	s.dropRetired(tp.name)
	if s.repl != nil {
		// Best-effort: tell the followers their cold replicas are garbage.
		// A follower that misses the drop keeps a stale replica, which the
		// epoch fence retires if the name is ever re-created.
		s.repl.dropReplicas(tp.name, tp.eng().Epoch())
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// batchScratch is the pooled per-request decode/encode state of the
// batch endpoint: the request struct (whose tweet slice encoding/json
// refills in place), the assembled solver batch and the response
// skeleton. Pooling it makes the daemon's own bookkeeping on the hot
// POST path allocation-free in steady state; what remains is the JSON
// string data itself and the solver's escaping results.
type batchScratch struct {
	body   bytes.Buffer
	req    batchRequest
	tweets []triclust.Tweet
	resp   batchResponse
	// Binary-response scratch (Accept: application/x-triclust-batch):
	// the encoded frame and the sentiment slices it is built from. No
	// reset needed — every use rebuilds from [:0].
	bin  []byte
	binT []codec.BatchSentiment
	binU []codec.BatchUserSentiment
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// reset clears every field a previous request may have left behind.
// encoding/json merges into existing slice elements, so stale tweetSpec
// fields (pointers especially) must be zeroed up to capacity.
func (sc *batchScratch) reset() {
	sc.body.Reset()
	full := sc.req.Tweets[:cap(sc.req.Tweets)]
	clear(full)
	sc.req = batchRequest{Tweets: full[:0]}
	sc.tweets = sc.tweets[:0]
	// The response slices must start non-nil so an empty batch still
	// marshals as "tweets":[] — exactly what the pre-pooling make()
	// calls produced — instead of null on a fresh pool object.
	tweets, users := sc.resp.Tweets, sc.resp.Users
	if tweets == nil {
		tweets = []sentimentJSON{}
	}
	if users == nil {
		users = []userSentimentJSON{}
	}
	sc.resp = batchResponse{Tweets: tweets[:0], Users: users[:0]}
}

func (s *server) processBatch(w http.ResponseWriter, r *http.Request) *apiError {
	// Content negotiation happens before routing so a request in a format
	// no shard decodes is refused here instead of bouncing off the owner;
	// every shard runs the same build, so local validation is cluster
	// validation.
	format, e := requireMediaType(r, mediaTypeJSON, mediaTypeBatch)
	if e != nil {
		return e
	}
	tp, e := s.lookup(w, r)
	if tp == nil {
		return e
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	sc.reset()
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		return bodyError(err)
	}
	var batchTime int
	if format == mediaTypeBatch {
		// The binary frame carries ready-to-solve tweets: no tweetSpec
		// intermediary, no per-field defaulting. Decode appends fully
		// assigned elements into the pooled slice, so scratch reuse across
		// formats cannot surface a prior request's tokens. Every decode
		// failure — truncation, bit flip, version skew, trailing bytes —
		// is the same 400 the JSON path gives malformed bodies.
		ts, tweets, err := codec.DecodeBatchRequest(sc.body.Bytes(), sc.tweets[:0])
		if err != nil {
			return errf(http.StatusBadRequest, codeInvalidRequest, "decode batch frame: %w", err)
		}
		batchTime, sc.tweets = ts, tweets
	} else {
		if err := decodeStrict(sc.body.Bytes(), &sc.req); err != nil {
			return errf(http.StatusBadRequest, codeInvalidRequest, "decode: %w", err)
		}
		req := &sc.req
		batchTime = req.Time
		for _, ts := range req.Tweets {
			tw := triclust.Tweet{
				Text:      ts.Text,
				Tokens:    ts.Tokens,
				User:      ts.User,
				Time:      req.Time,
				RetweetOf: -1,
				Label:     triclust.NoLabel,
			}
			if ts.Time != nil {
				tw.Time = *ts.Time
			}
			if ts.RetweetOf != nil {
				tw.RetweetOf = *ts.RetweetOf
			}
			sc.tweets = append(sc.tweets, tw)
		}
	}

	out, e := s.runBatch(tp, batchTime, sc.tweets)
	if e != nil {
		return s.refuse(w, r, tp.name, e)
	}

	if acceptsBatch(r) {
		writeBatchBinary(w, sc, out, batchTime)
		return nil
	}
	sc.resp.Time = batchTime
	sc.resp.Skipped = out.Skipped
	sc.resp.Iterations = out.Iterations
	sc.resp.Converged = out.Converged
	// Flag mode annotates accepted batches with their verdict (off mode
	// scores too, but surfaces nothing — byte-identical responses).
	if s.conform != triclust.ConformOff {
		sc.resp.Conformance = verdictOf(out.Conformance)
	}
	sc.resp.Tweets = appendJSON(sc.resp.Tweets, out.TweetSentiments)
	for i, sen := range out.UserSentiments {
		sc.resp.Users = append(sc.resp.Users, userSentimentJSON{User: out.ActiveUsers[i], sentimentJSON: oneJSON(sen)})
	}
	writeJSON(w, http.StatusOK, &sc.resp)
	return nil
}

// writeBatchBinary writes the Accept-negotiated binary batch response:
// the same fields the JSON body carries (class names derive from the
// class index on the client side; the flag-mode conformance annotation
// is JSON-only, as documented in the README's wire-format section).
func writeBatchBinary(w http.ResponseWriter, sc *batchScratch, out *triclust.StreamResult, batchTime int) {
	sc.binT = sc.binT[:0]
	for _, sen := range out.TweetSentiments {
		sc.binT = append(sc.binT, codec.BatchSentiment{Class: sen.Class, Confidence: sen.Confidence})
	}
	sc.binU = sc.binU[:0]
	for i, sen := range out.UserSentiments {
		sc.binU = append(sc.binU, codec.BatchUserSentiment{
			User: out.ActiveUsers[i], Class: sen.Class, Confidence: sen.Confidence,
		})
	}
	res := codec.BatchResult{
		Time:       batchTime,
		Skipped:    out.Skipped,
		Converged:  out.Converged,
		Iterations: out.Iterations,
		Tweets:     sc.binT,
		Users:      sc.binU,
	}
	sc.bin = codec.AppendBatchResponse(sc.bin[:0], &res)
	w.Header().Set("Content-Type", mediaTypeBatch)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.bin)
}

// update is the one write path of a registered topic: lock → admit →
// mutate → durable-or-rollback. mutate changes the engine in memory and
// reports whether anything changed (false: nothing to persist) beside any
// refusal; persist makes the change durable and returns the journal frame
// the followers get (nil: the full snapshot). A persist that fails leaves
// memory ahead of what disk vouches for — keeping that state would promise
// durability the disk refused — so the engine is rolled back to disk (see
// rollback) and the write answers persist's error. The lock is released by
// defer so that a panic below — the solver, the store — unwinds instead of
// wedging the topic forever; the response is written by the caller, off
// the lock, so a slow client cannot stall the topic either.
func (s *server) update(tp *topic, mutate func(eng *triclust.Topic) (bool, *apiError), persist func() ([]byte, *apiError)) *apiError {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	// Fail fast while storage is degraded: don't burn a solve (or worse,
	// another rollback reload) on a write that cannot be made durable.
	if e := s.admit(tp, opWrite); e != nil {
		return e
	}
	changed, refusal := mutate(tp.eng())
	if changed && s.store != nil {
		frame, e := persist()
		if e != nil {
			return s.rollback(tp, e)
		}
		if e := s.replShip(tp, frame, false); e != nil {
			return e
		}
	}
	return refusal
}

// runBatch solves one batch through update; with a data directory every
// applied batch is journaled (commit, persist.go) before it is acked.
func (s *server) runBatch(tp *topic, ts int, tweets []triclust.Tweet) (*triclust.StreamResult, *apiError) {
	var out *triclust.StreamResult
	e := s.update(tp, func(eng *triclust.Topic) (bool, *apiError) {
		if last, ok := eng.LastTime(); ok && len(tweets) > 0 && ts <= last {
			return false, errf(http.StatusConflict, codeStaleTimestamp, "time %d not after last processed %d", ts, last)
		}
		var err error
		if out, err = eng.Process(ts, tweets); err != nil {
			// An enforce-mode conformance rejection happened before any state
			// advanced — before the journal append in particular, so the
			// refused batch is not in durable history and a corrected retry is
			// safe. It gets its own stable code (the verdict rides in the
			// error body, see fail) and is tracked for healthz.
			var ce *triclust.ConformanceError
			if errors.As(err, &ce) {
				s.conformRejected.Add(1)
				tp.noteViolation(ts, &ce.Verdict)
				return false, &apiError{status: http.StatusUnprocessableEntity, code: codeBatchNonconforming, err: err}
			}
			return false, &apiError{status: http.StatusUnprocessableEntity, code: codeInvalidBatch, err: err}
		}
		// Flag-mode bookkeeping: an accepted batch whose verdict was flagged
		// or quarantined still shows up in the healthz census.
		tp.noteViolation(ts, out.Conformance)
		return !out.Skipped, nil
	}, func() ([]byte, *apiError) { return s.commit(tp, ts, tweets) })
	return out, e
}

// warmupVocab implements POST /v1/topics/{topic}/vocab: fold warm-up
// documents into the vocabulary before the first batch freezes it, and
// optionally freeze it explicitly.
func (s *server) warmupVocab(w http.ResponseWriter, r *http.Request) *apiError {
	if _, e := requireMediaType(r, mediaTypeJSON); e != nil {
		return e
	}
	tp, e := s.lookup(w, r)
	if tp == nil {
		return e
	}
	// Buffer-then-decodeStrict, like every JSON endpoint: the streaming
	// json.Decoder this handler used to construct stopped at the first
	// complete value and silently accepted trailing garbage, a laxness no
	// other endpoint shared.
	body, e := readBody(r)
	if e != nil {
		return e
	}
	var req vocabRequest
	if err := decodeStrict(body, &req); err != nil {
		return errf(http.StatusBadRequest, codeInvalidRequest, "decode: %w", err)
	}
	var resp vocabResponse
	// Vocabulary warm-up mutates state outside the journal, so its durable
	// write is a fresh snapshot, and the followers get that new base. A
	// no-op request (nothing folded in, no freeze) persists nothing:
	// repeated empty POSTs must not re-write a potentially large snapshot.
	// A request refused part-way still persists the part it folded in.
	e = s.update(tp, func(eng *triclust.Topic) (changed bool, _ *apiError) {
		if len(req.Texts) > 0 {
			if err := eng.WarmupVocabulary(req.Texts...); err != nil {
				return changed, &apiError{status: http.StatusConflict, code: codeVocabFrozen, err: err}
			}
			changed = true
		}
		if len(req.Docs) > 0 {
			if err := eng.WarmupTokenized(req.Docs); err != nil {
				return changed, &apiError{status: http.StatusConflict, code: codeVocabFrozen, err: err}
			}
			changed = true
		}
		if req.Freeze {
			if err := eng.Freeze(); err != nil {
				// Freeze fails for two distinct reasons: the vocabulary is
				// already frozen (a conflict) or the warm-up counts yield no
				// words at MinDF (a bad request, fixed by sending more docs).
				if eng.Frozen() {
					return changed, &apiError{status: http.StatusConflict, code: codeVocabFrozen, err: err}
				}
				return changed, &apiError{status: http.StatusUnprocessableEntity, code: codeInvalidRequest, err: err}
			}
			changed = true
		}
		resp = vocabResponse{Frozen: eng.Frozen(), VocabSize: eng.VocabSize()}
		return changed, nil
	}, func() ([]byte, *apiError) {
		if err := s.saveIfCurrent(tp); err != nil {
			return nil, &apiError{status: http.StatusInternalServerError, code: codeStorage, err: err}
		}
		return nil, nil
	})
	if e != nil {
		return s.refuse(w, r, tp.name, e)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// exportSnapshot implements GET /v1/topics/{topic}/snapshot: the durable
// binary export. The body round-trips through PUT /v1/topics/{name} (on
// this or another daemon) and through triclust.Restore.
func (s *server) exportSnapshot(w http.ResponseWriter, r *http.Request) *apiError {
	tp, e := s.readable(w, r)
	if tp == nil {
		return e
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", tp.name+".snap"))
	if err := tp.eng().Snapshot(w); err != nil {
		// Headers are committed; all we can do is drop the connection so
		// the client sees a truncated (checksum-failing) body.
		s.logf("snapshot %q: %v", tp.name, err)
		panic(http.ErrAbortHandler)
	}
	return nil
}

// marshalFeatures builds the /features response body for one view: the
// frozen vocabulary plus the view's feature labels. Called only when the
// topic's cached body is for a different ETag, i.e. at most once per
// committed batch per topic.
func marshalFeatures(tp *topic, v triclust.ReadView) ([]byte, error) {
	return json.Marshal(featuresResponse{
		Vocabulary:  tp.eng().Vocabulary(),
		Features:    toJSON(v.FeatureSentiments()),
		Convergence: convergenceOf(v),
	})
}

// snapshotAll persists every topic (used for the final snapshot during
// graceful shutdown). It reports the first error but keeps going.
func (s *server) snapshotAll() error {
	var first error
	for _, tp := range s.served() {
		tp.mu.Lock()
		err := s.saveIfCurrent(tp)
		tp.mu.Unlock()
		if err != nil {
			s.logf("final snapshot %q: %v", tp.name, err)
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// ——— helpers ———

func (tp *topic) summary() topicSummary {
	return tp.summaryView(tp.eng().ReadView())
}

// summaryView builds the summary from one read view, so a handler that
// already loaded a view (and derived its ETag from it) reports exactly
// that view's counters, not those of a batch that committed in between.
func (tp *topic) summaryView(v triclust.ReadView) topicSummary {
	sum := topicSummary{
		Name:        tp.name,
		Created:     tp.created,
		Users:       v.Users(),
		Batches:     v.Batches(),
		Skipped:     v.SkippedBatches(),
		KnownUsers:  v.KnownUsers(),
		VocabSize:   v.VocabSize(),
		Frozen:      v.Frozen(),
		Convergence: convergenceOf(v),
	}
	if last, ok := v.LastTime(); ok {
		sum.LastTime = &last
	}
	return sum
}

func oneJSON(s triclust.Sentiment) sentimentJSON {
	return sentimentJSON{
		Class:      s.Class,
		ClassName:  triclust.ClassName(s.Class),
		Confidence: s.Confidence,
	}
}

func toJSON(ss []triclust.Sentiment) []sentimentJSON {
	return appendJSON(make([]sentimentJSON, 0, len(ss)), ss)
}

func appendJSON(dst []sentimentJSON, ss []triclust.Sentiment) []sentimentJSON {
	for _, s := range ss {
		dst = append(dst, oneJSON(s))
	}
	return dst
}

// eng returns the topic's engine. Writers mutate the engine only under
// tp.mu; the atomic load lets the lock-free read plane observe the
// rollback swap in reloadFromDisk without a lock.
func (tp *topic) eng() *triclust.Topic { return tp.engp.Load() }
