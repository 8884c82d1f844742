package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"triclust"
	"triclust/internal/codec"
)

// Stable error codes of the v1 API. Clients should branch on these, not
// on message text or HTTP status alone. A code never changes meaning, and
// a retired code is never reused: shard_unreachable went with the cluster
// proxy, and journal_write_failed folded into storage_degraded.
const (
	codeInvalidRequest = "invalid_request" // malformed JSON / missing fields
	codeInvalidName    = "invalid_topic_name"
	codeInvalidConfig  = "invalid_config" // rejected by triclust validation
	codeTopicExists    = "topic_exists"
	codeTopicNotFound  = "topic_not_found"
	codeUserNotFound   = "user_not_found"
	codeInvalidBatch   = "invalid_batch"   // batch rejected by the engine
	codeStaleTimestamp = "stale_timestamp" // batch time not after the last one
	// codeBatchNonconforming means enforce mode quarantined the batch
	// against the topic's learned stream profile, before the journal
	// append — the refused batch is not in durable history, so a
	// corrected retry is safe. The error body carries the structured
	// verdict (violated invariants, per-invariant z-scores).
	codeBatchNonconforming = "batch_nonconforming"
	codeVocabFrozen        = "vocabulary_frozen" // warm-up after the freeze
	codeInvalidSnapshot    = "invalid_snapshot"  // corrupt / truncated snapshot body
	codeSnapshotVersion    = "unsupported_snapshot_version"
	codeStorage            = "storage_error"  // -data-dir persistence failed
	codeBodyTooLarge       = "body_too_large" // request body exceeds -max-body-bytes
	// codeUnsupportedMediaType means the request's Content-Type names a
	// format the endpoint does not decode (415). Body-carrying endpoints
	// accept their default format when the header is absent; the batch
	// endpoint additionally accepts application/x-triclust-batch. Fix the
	// header (or the body format), don't retry as-is.
	codeUnsupportedMediaType = "unsupported_media_type"
	// codeStorageDegraded means the topic's storage refused the write:
	// either this batch's journal append + fsync failed (disk full, I/O
	// error), so the topic did not take the batch, or repeated failures
	// (or a lost journal) flipped the topic read-only, where reads still
	// answer, marked by an X-Triclust-Degraded header. Retry after the
	// Retry-After hint; a background write probe recovers the topic
	// automatically.
	codeStorageDegraded = "storage_degraded"
	// codeStorageReadonly means enough topics degraded that the whole
	// shard refuses writes (a disk failing across topics is about to fail
	// the next one too). Reads still work. Retryable like
	// storage_degraded.
	codeStorageReadonly = "storage_readonly"

	// Cluster-mode codes.
	codeNotClustered  = "not_clustered"  // cluster endpoint without -peers/-self
	codeUnknownPeer   = "unknown_peer"   // move target not in the ring
	codeMoveFailed    = "move_failed"    // hand-off installation failed (see message for fence state)
	codeEpochMismatch = "epoch_mismatch" // snapshot's ownership epoch fenced by a tombstone
	// codeHandoffPending means this shard holds the topic from a hand-off
	// whose install it has not confirmed: it neither serves the topic nor
	// redirects it until the hand-off resumes (every -probe-interval).
	// Retryable.
	codeHandoffPending = "handoff_pending"

	// Replication codes.
	codeReplicationOff   = "replication_off"     // replica endpoint without -replication-factor >= 2
	codeReplicaOutOfSync = "replica_out_of_sync" // shipped tail does not extend the held replica; re-ship a full base
)

// errorBody is the wire shape of every error response:
//
//	{"error": {"code": "topic_not_found", "message": "..."}}
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Conformance carries the structured verdict of a
	// batch_nonconforming rejection; absent on every other error.
	Conformance *verdictJSON `json:"conformance,omitempty"`
}

// apiError is the one value a refused request is described by, from the
// function that refuses it to the response: status, stable code, cause,
// and — for fencing verdicts — the epoch and owning shard the refusal
// advertises. It exists only on refusal. A peer's refusal decodes back
// into the same type (peerError), so an inter-shard caller branches on
// exactly what the remote handler returned.
type apiError struct {
	status int
	code   string
	err    error
	epoch  uint64 // X-Triclust-Epoch (0: none)
	owner  string // X-Triclust-Shard ("": none)
}

func (e *apiError) Error() string { return e.err.Error() }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, err: fmt.Errorf(format, args...)}
}

// fail writes e as the response — the only place that stamps what a
// refusal means beyond its body: the retry hint of a storage refusal (the
// probe cadence, i.e. the soonest recovery could have happened), the
// fencing epoch and owner of an epoch_mismatch, and the structured verdict
// of a conformance rejection (which invariant broke, by how many sigma).
func (s *server) fail(w http.ResponseWriter, e *apiError) {
	h := w.Header()
	if e.code == codeStorageDegraded || e.code == codeStorageReadonly {
		h.Set("Retry-After", retrySeconds(s.probeEvery))
	}
	if e.epoch != 0 {
		h.Set(epochHeader, strconv.FormatUint(e.epoch, 10))
	}
	if e.owner != "" {
		h.Set(shardHeader, e.owner)
	}
	detail := errorDetail{Code: e.code, Message: e.Error()}
	var ce *triclust.ConformanceError
	if errors.As(e.err, &ce) {
		detail.Conformance = verdictOf(&ce.Verdict)
	}
	writeJSON(w, e.status, errorBody{Error: detail})
}

// peerError rebuilds the apiError a peer's handler passed to fail from the
// peer's reply.
func peerError(peer string, resp *http.Response, body []byte) *apiError {
	e := &apiError{status: resp.StatusCode, owner: resp.Header.Get(shardHeader),
		err: fmt.Errorf("%s answered %d", peer, resp.StatusCode)}
	e.epoch, _ = strconv.ParseUint(resp.Header.Get(epochHeader), 10, 64)
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error.Code != "" {
		e.code = eb.Error.Code
		e.err = fmt.Errorf("%s answered %d (%s: %s)", peer, resp.StatusCode, e.code, eb.Error.Message)
	}
	return e
}

// snapshotErrorCode maps codec decode failures onto stable error codes.
func snapshotErrorCode(err error) string {
	switch {
	case errors.Is(err, codec.ErrVersion):
		return codeSnapshotVersion
	default:
		return codeInvalidSnapshot
	}
}

// bodyError maps a request-body read failure onto its refusal: a body
// that tripped the -max-body-bytes bound is 413 body_too_large (the client
// should split the batch, not re-send), anything else is a plain 400.
func bodyError(err error) *apiError {
	e := errf(http.StatusBadRequest, codeInvalidRequest, "read body: %w", err)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		e.status, e.code = http.StatusRequestEntityTooLarge, codeBodyTooLarge
	}
	return e
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
