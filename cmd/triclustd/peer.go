package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/repl"
)

// All inter-shard traffic — failure-detector probes, replica ships and
// drops, hand-off PUTs and placement queries — goes through one
// peerClient, so substituting its transport substitutes every byte that
// crosses shards. Every such request is the daemon's own: a mis-routed
// client request is answered 307, never relayed.

// peerOptions are the tunables of inter-shard traffic.
type peerOptions struct {
	// Timeout bounds each request (-peer-timeout); 0 selects
	// defaultPeerTimeout, or defaultShipTimeout for replica ships and drops.
	Timeout time.Duration
	// Backoff spaces retries; the zero value is cluster.DefaultBackoff.
	Backoff cluster.Backoff
	// Transport carries the requests (the fault-injection harness plugs a
	// flaky RoundTripper in here); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

const (
	defaultPeerTimeout = 30 * time.Second
	// defaultShipTimeout is tighter because a ship runs under the topic
	// lock with a client waiting.
	defaultShipTimeout = 10 * time.Second

	// peerAttempts bounds retries of inter-shard requests that are safe to
	// re-issue (idempotent GETs; hand-off PUTs disambiguated between tries).
	peerAttempts = 4
)

type peerClient struct {
	opts peerOptions
	hc   *http.Client
	// retry paces every retried call, and Handoff's installs, with the
	// server's sleep; its Live is the failure detector once replication
	// runs, so a peer declared down is not retried.
	retry cluster.Retry
}

func newPeerClient(opts peerOptions, sleep cluster.Sleep) *peerClient {
	return &peerClient{opts: opts, hc: &http.Client{Transport: opts.Transport},
		retry: cluster.Retry{Attempts: peerAttempts, Backoff: opts.Backoff, Sleep: sleep}}
}

// peerCall is one inter-shard request with a bounded JSON (or ignored) reply.
type peerCall struct {
	method     string
	peer, path string
	header     http.Header
	body       []byte
	// timeout is the deadline when -peer-timeout is unset (0: defaultPeerTimeout).
	timeout time.Duration
	// attempts bounds the tries (0: one). Transport errors and 5xx answers
	// retry, a 4xx is the peer's considered verdict.
	attempts int
}

// once issues c a single time under its own deadline — the one place an
// inter-shard request is built. A 2xx reply is decoded into out (nil:
// discarded); any other answer comes back as the *apiError the peer wrote.
func (p *peerClient) once(ctx context.Context, c *peerCall, out any) error {
	timeout := c.timeout
	if p.opts.Timeout > 0 {
		timeout = p.opts.Timeout
	} else if timeout <= 0 {
		timeout = defaultPeerTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, c.method, c.peer+c.path, bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	for k, v := range c.header {
		req.Header[k] = v
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return fmt.Errorf("read reply of %s: %w", c.peer, err)
	}
	if resp.StatusCode/100 != 2 {
		return peerError(c.peer, resp, reply)
	}
	if out != nil {
		if err := json.Unmarshal(reply, out); err != nil {
			return fmt.Errorf("undecodable reply of %s: %w", c.peer, err)
		}
	}
	return nil
}

// call issues c with bounded retries and backoff (cluster.Retry, the one
// retry loop of inter-shard traffic). ctx ends the retry waits and the
// request in flight: the server's lifetime, or a probe's deadline.
func (p *peerClient) call(ctx context.Context, c peerCall, out any) error {
	r := p.retry
	r.Attempts = c.attempts
	return r.Do(ctx, c.peer, func() (bool, error) {
		err := p.once(ctx, &c, out)
		ae := (*apiError)(nil)
		return err == nil || errors.As(err, &ae) && ae.status < 500, err
	})
}

// Append is repl's Transport: safe to retry, as a follower acks a duplicate
// frame (a retry whose first response was lost) idempotently.
func (p *peerClient) Append(ctx context.Context, peer, topic string, fr *codec.ReplAppend, attempts int) (int, error) {
	var ack replAck
	err := p.call(ctx, peerCall{
		method: http.MethodPost, peer: peer, path: "/v1/replica/" + topic + "/append",
		body:    codec.AppendReplAppend(nil, fr),
		header:  http.Header{"Content-Type": {mediaTypeSnapshot}},
		timeout: defaultShipTimeout, attempts: attempts,
	}, &ack)
	if ae := (*apiError)(nil); errors.As(err, &ae) && (ae.code == codeEpochMismatch || ae.code == codeReplicaOutOfSync) {
		err = &repl.Refusal{Fenced: ae.code == codeEpochMismatch, Epoch: ae.epoch, Owner: ae.owner, Err: err}
	}
	return ack.Batches, err
}

// Install is cluster's Transport: one hand-off PUT through the ordinary
// restore endpoint, marked so the target pins the topic. Every answer but a
// 201 is the target's refusal; a 5xx or topic_exists is settled by Holds.
func (p *peerClient) Install(ctx context.Context, peer, name string, snapshot []byte) error {
	err := p.once(ctx, &peerCall{method: http.MethodPut, peer: peer, path: "/v1/topics/" + name, body: snapshot,
		header: http.Header{"Content-Type": {mediaTypeSnapshot}, handoffHeader: {"1"}}}, nil)
	if ae := (*apiError)(nil); errors.As(err, &ae) {
		err = &cluster.Refusal{Exists: ae.code == codeTopicExists, Transient: ae.status >= 500, Fenced: ae.code == codeEpochMismatch, Err: err}
	}
	return err
}

// Holds asks peer whether it serves name locally at an epoch at least the
// given one — the signature of a hand-off (or promotion) that already
// happened there; reachable tells "asked, and it does not" from "could not
// ask". An idempotent GET, so it retries.
func (p *peerClient) Holds(ctx context.Context, peer, name string, epoch uint64) (has, reachable bool) {
	var info clusterInfoResponse
	err := p.call(ctx, peerCall{method: http.MethodGet, peer: peer,
		path: "/v1/cluster/info?topic=" + name, attempts: peerAttempts}, &info)
	return err == nil && info.Topic != nil && info.Topic.Local && info.Topic.Epoch >= epoch, err == nil
}
