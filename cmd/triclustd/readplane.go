package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync"

	"triclust"
)

// The read plane: every GET below answers from the topic's published
// ReadView — a single atomic pointer load — so a solve, snapshot export,
// journal replay or hand-off in flight never stalls a read, and read QPS
// is bounded by encoding speed, not by Topic.mu.
//
// HTTP caching rides on the view's stream fingerprint: every read
// response carries a strong ETag derived from (batches, randDraws,
// epoch). Views with equal fingerprints are bit-identical — on any
// replica, after any restore or replay — so the validator is exact. The
// common poll ("anything new since my last look?") revalidates with
// If-None-Match and is answered 304 with no body and no encoding work.
//
// Responses additionally carry a convergence indicator (state, batches,
// delta), so a client polling during warm-up, backfill or replica
// promotion gets a usable progressive estimate immediately instead of an
// error or a blocked request, and can tell how settled it is.

// readCacheControl marks read responses as per-client cacheable but
// revalidate-always: correctness comes from the ETag, freshness from the
// 304 fast path, and intermediaries must not serve one user's sentiment
// poll to another.
const readCacheControl = "private, no-cache"

// appendETag appends the view's strong ETag: batches, random-stream
// position (hex) and ownership epoch. Any committed batch changes the
// fingerprint; a rolled-back (journal-refused) batch reverts it. Before
// the first batch the one thing a view can still change is an explicit
// vocabulary freeze, so a frozen topic at batch 0 adds its vocabulary
// size; from the first batch on only a batch changes what a view reports.
func appendETag(b []byte, v triclust.ReadView) []byte {
	batches, draws := v.StreamPos()
	b = append(b, '"', 'b')
	b = strconv.AppendInt(b, int64(batches), 10)
	b = append(b, '-', 'r')
	b = strconv.AppendUint(b, draws, 16)
	b = append(b, '-', 'e')
	b = strconv.AppendUint(b, v.Epoch(), 10)
	if batches == 0 && v.Frozen() {
		b = append(b, '-', 'v')
		b = strconv.AppendInt(b, int64(v.VocabSize()), 10)
	}
	return append(b, '"')
}

// etagMatch implements the If-None-Match comparison against one strong
// validator: a comma-separated candidate list, "*" matching anything,
// and weak-prefixed entries compared by opaque value (RFC 9110 §8.8.3.2
// weak comparison, the one If-None-Match mandates).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for len(header) > 0 {
		item := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			item, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		item = strings.TrimSpace(item)
		item = strings.TrimPrefix(item, "W/")
		if item == "*" || item == etag {
			return true
		}
	}
	return false
}

// setReadHeaders stamps the caching contract shared by every read
// endpoint.
func setReadHeaders(w http.ResponseWriter, etag string) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", readCacheControl)
}

// readScratch is the pooled per-request encoding state of the hottest
// read: the response body buffer, so a steady-state user-estimate poll
// allocates only the small header strings that escape into the response
// — the read path's analogue of the batch endpoint's batchScratch.
type readScratch struct {
	buf []byte
}

var readPool = sync.Pool{New: func() any { return new(readScratch) }}

// appendSentimentFields appends the sentimentJSON fields (no braces), so
// callers can splice them into larger objects.
func appendSentimentFields(b []byte, s triclust.Sentiment) []byte {
	b = append(b, `"class":`...)
	b = strconv.AppendInt(b, int64(s.Class), 10)
	b = append(b, `,"class_name":"`...)
	b = append(b, triclust.ClassName(s.Class)...)
	b = append(b, `","confidence":`...)
	return strconv.AppendFloat(b, s.Confidence, 'g', -1, 64)
}

// appendConvergence appends the `"convergence":{...}` member of a read
// response.
func appendConvergence(b []byte, v triclust.ReadView) []byte {
	c := v.Convergence()
	b = append(b, `"convergence":{"state":"`...)
	b = append(b, c.State...)
	b = append(b, `","batches":`...)
	b = strconv.AppendInt(b, int64(c.Batches), 10)
	b = append(b, `,"delta":`...)
	b = strconv.AppendFloat(b, c.Delta, 'g', -1, 64)
	return append(b, '}')
}

// convergenceJSON is the wire shape of the convergence indicator where
// responses are built with encoding/json (summaries, features).
type convergenceJSON struct {
	State   string  `json:"state"`
	Batches int     `json:"batches"`
	Delta   float64 `json:"delta"`
}

func convergenceOf(v triclust.ReadView) *convergenceJSON {
	c := v.Convergence()
	return &convergenceJSON{State: string(c.State), Batches: c.Batches, Delta: c.Delta}
}

// cachedRead is one immutable pre-encoded read response, valid for
// exactly one ETag (i.e. one published view). Topics keep one per
// cacheable endpoint so repeated polls at an unchanged batch counter
// re-serve bytes instead of re-labeling and re-encoding.
type cachedRead struct {
	etag string
	body []byte
}

// readable resolves the request's topic and admits the read, marking
// reads served from the last durable state. Like lookup, a nil topic ends
// the request: with the refusal, or redirected.
func (s *server) readable(w http.ResponseWriter, r *http.Request) (*topic, *apiError) {
	tp, e := s.lookup(w, r)
	if tp == nil {
		return nil, e
	}
	if e := s.admit(tp, opRead); e != nil {
		return nil, s.refuse(w, r, tp.name, e)
	}
	if mark := topicStates[tp.state.Load()].mark; mark != "" {
		w.Header().Set(degradedHeader, mark)
	}
	return tp, nil
}

// conditionalRead is the preamble of the ETag-validated reads: lookup →
// admit → published view → its ETag → 304 on a matching If-None-Match (no
// body, no encoding work). A nil topic ends the request, as in lookup.
func (s *server) conditionalRead(w http.ResponseWriter, r *http.Request) (tp *topic, v triclust.ReadView, etag string, e *apiError) {
	if tp, e = s.readable(w, r); tp == nil {
		return nil, v, "", e
	}
	s.reads.Add(1)
	v = tp.eng().ReadView()
	var tag [64]byte
	etag = string(appendETag(tag[:0], v))
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		setReadHeaders(w, etag)
		w.WriteHeader(http.StatusNotModified)
		return nil, v, "", nil
	}
	return tp, v, etag, nil
}

// userEstimate implements GET /v1/topics/{topic}/users/{user}: the
// hottest read. Served entirely from the published view with pooled
// encoding scratch; an If-None-Match hit costs no encoding at all.
func (s *server) userEstimate(w http.ResponseWriter, r *http.Request) *apiError {
	user, err := strconv.Atoi(r.PathValue("user"))
	if err != nil {
		return errf(http.StatusBadRequest, codeInvalidRequest, "bad user id: %w", err)
	}
	tp, v, etag, e := s.conditionalRead(w, r)
	if tp == nil {
		return e
	}
	est, ok := v.UserEstimate(user)
	if !ok {
		return errf(http.StatusNotFound, codeUserNotFound, "user %d has no history", user)
	}
	sc := readPool.Get().(*readScratch)
	defer readPool.Put(sc)
	b := append(sc.buf[:0], `{"user":`...)
	b = strconv.AppendInt(b, int64(user), 10)
	b = append(b, ',')
	b = appendSentimentFields(b, est)
	b = append(b, ',')
	b = appendConvergence(b, v)
	b = append(b, '}', '\n')
	sc.buf = b
	setReadHeaders(w, etag)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	return nil
}

// featureSentiments implements GET /v1/topics/{topic}/features: the
// vocabulary with the learned per-word sentiments of the most recent
// solve (the JSON companion to the binary snapshot). Labels come from
// the published view — labeled once per committed batch, not per request
// — and the whole response body is cached against the view's ETag, so
// polls at an unchanged batch counter re-serve bytes (or 304).
func (s *server) featureSentiments(w http.ResponseWriter, r *http.Request) *apiError {
	tp, v, etag, e := s.conditionalRead(w, r)
	if tp == nil {
		return e
	}
	c := tp.feat.Load()
	if c == nil || c.etag != etag {
		body, err := marshalFeatures(tp, v)
		if err != nil {
			return errf(http.StatusInternalServerError, codeStorage, "%w", err)
		}
		c = &cachedRead{etag: etag, body: body}
		tp.feat.Store(c)
	}
	setReadHeaders(w, etag)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(c.body)
	return nil
}

// topicInfo implements GET /v1/topics/{topic}: the summary, served from
// the view with the same ETag contract as the other read endpoints.
func (s *server) topicInfo(w http.ResponseWriter, r *http.Request) *apiError {
	tp, v, etag, e := s.conditionalRead(w, r)
	if tp == nil {
		return e
	}
	setReadHeaders(w, etag)
	writeJSON(w, http.StatusOK, tp.summaryView(v))
	return nil
}

// readPlaneHealth is the healthz read-plane section: traffic counters
// plus the convergence-state census of the served topics, so an operator
// can see at a glance whether a shard is mid-backfill (topics warming or
// converging) and whether clients are using the 304 fast path.
type readPlaneHealth struct {
	Reads       uint64 `json:"reads"`
	NotModified uint64 `json:"not_modified"`
	Warming     int    `json:"topics_warming"`
	Converging  int    `json:"topics_converging"`
	Steady      int    `json:"topics_steady"`
}

// readPlaneHealth assembles the healthz section from the server's
// counters and the given topics' current views.
func (s *server) readPlaneHealth(topics []*topic) *readPlaneHealth {
	h := &readPlaneHealth{
		Reads:       s.reads.Load(),
		NotModified: s.notModified.Load(),
	}
	for _, tp := range topics {
		switch tp.eng().ReadView().Convergence().State {
		case triclust.Warming:
			h.Warming++
		case triclust.Converging:
			h.Converging++
		case triclust.Steady:
			h.Steady++
		}
	}
	return h
}
