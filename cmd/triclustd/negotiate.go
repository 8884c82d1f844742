package main

import (
	"encoding/json"
	"mime"
	"net/http"
	"strings"
)

// Media types of the v1 API. Body-carrying endpoints validate the
// request's Content-Type against the formats they decode (absent means
// the endpoint's default — JSON everywhere except the snapshot-bodied
// endpoints); anything else is 415 unsupported_media_type. Before two
// request formats existed the header was ignored, which was merely lax;
// with JSON and the binary batch frame sharing one route it would be
// ambiguous, so the contract is explicit now.
const (
	mediaTypeJSON     = "application/json"
	mediaTypeBatch    = "application/x-triclust-batch"
	mediaTypeSnapshot = "application/octet-stream"
)

// requireMediaType validates the request's Content-Type against the
// media types the endpoint accepts. An absent header selects the first
// (the endpoint's default); parameters like charset are tolerated and
// ignored. Anything else is refused with 415.
func requireMediaType(r *http.Request, accepted ...string) (string, *apiError) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return accepted[0], nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return "", errf(http.StatusUnsupportedMediaType, codeUnsupportedMediaType, "malformed Content-Type %q: %v", ct, err)
	}
	for _, a := range accepted {
		if mt == a {
			return mt, nil
		}
	}
	return "", errf(http.StatusUnsupportedMediaType, codeUnsupportedMediaType,
		"Content-Type %q is not accepted here (expected %s)", mt, strings.Join(accepted, " or "))
}

// acceptsBatch reports whether the request negotiates the binary batch
// response format: any element of the Accept list whose media range is
// exactly application/x-triclust-batch selects it (quality factors are
// not weighed — a client that lists the type wants it). Everything else,
// including an absent header, gets JSON, and error responses are always
// JSON regardless of Accept.
func acceptsBatch(r *http.Request) bool {
	for part := range strings.SplitSeq(r.Header.Get("Accept"), ",") {
		mt := part
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = mt[:i]
		}
		if strings.EqualFold(strings.TrimSpace(mt), mediaTypeBatch) {
			return true
		}
	}
	return false
}

// decodeStrict unmarshals a buffered request body under the daemon's
// body contract: exactly one JSON value with nothing after it.
// json.Unmarshal enforces that by construction — unlike
// json.Decoder.Decode, which reads one value and silently leaves
// trailing garbage unread — so every JSON endpoint funnels through this
// helper instead of constructing its own decoder.
func decodeStrict(body []byte, v any) error {
	return json.Unmarshal(body, v)
}
