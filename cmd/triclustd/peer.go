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
	opts  peerOptions
	hc    *http.Client
	sleep cluster.Sleep // the server's: spaces the retries
	// down reports a peer the failure detector declared down (nil without
	// replication): retrying it is abandoned at once — its resync happens
	// when it comes back, not by hammering a corpse.
	down func(peer string) bool
}

func newPeerClient(opts peerOptions, sleep cluster.Sleep) *peerClient {
	return &peerClient{opts: opts, hc: &http.Client{Transport: opts.Transport}, sleep: sleep}
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
	// retry, a 4xx is the peer's considered verdict — unless settle is set:
	// it sees each failure and either ends the call with a result or lets
	// the next try happen.
	attempts int
	settle   func(err error) (done bool, result error)
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

// call issues c with bounded retries and backoff — the one retry loop of
// inter-shard traffic. ctx ends the retry waits and the request in flight:
// the server's lifetime, or a probe's deadline.
func (p *peerClient) call(ctx context.Context, c peerCall, out any) error {
	var last error
	for attempt := 0; attempt < max(c.attempts, 1); attempt++ {
		if attempt > 0 {
			if p.down != nil && p.down(c.peer) {
				return fmt.Errorf("%s declared down after %d attempts: %w", c.peer, attempt, last)
			}
			if !p.sleep(ctx, p.opts.Backoff.Delay(attempt-1)) {
				return ctx.Err()
			}
		}
		if last = p.once(ctx, &c, out); last == nil {
			return nil
		}
		var ae *apiError
		if c.settle != nil {
			if done, result := c.settle(last); done {
				return result
			}
		} else if errors.As(last, &ae) && ae.status < 500 {
			return last
		}
	}
	if c.attempts > 1 {
		return fmt.Errorf("gave up after %d attempts: %w", c.attempts, last)
	}
	return last
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
