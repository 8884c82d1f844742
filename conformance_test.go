package triclust_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"triclust"
)

// Library-level conformance tests use the same controlled steady stream
// as the daemon suite: 12 users, 12 tweets per batch (tweet i from user
// i), three tokens each from a fixed five-word rotation, every tweet at
// the batch time, batch times stepping by one.

func conformUsers() []triclust.User {
	users := make([]triclust.User, 12)
	for i := range users {
		users[i] = triclust.User{Name: fmt.Sprintf("u%d", i), Label: triclust.NoLabel}
	}
	return users
}

func conformBatch(ts, tokensPerTweet int) []triclust.Tweet {
	word := func(k int) string { return fmt.Sprintf("w%d", k%5) }
	tweets := make([]triclust.Tweet, 12)
	for i := range tweets {
		toks := make([]string, tokensPerTweet)
		for j := range toks {
			toks[j] = word(i + j)
		}
		tweets[i] = triclust.Tweet{
			Tokens:    toks,
			User:      i,
			Time:      ts,
			RetweetOf: -1,
			Label:     triclust.NoLabel,
		}
	}
	return tweets
}

func conformTopic(t *testing.T, mode triclust.ConformanceMode) *triclust.Topic {
	t.Helper()
	cfg := triclust.DefaultOnlineConfig()
	cfg.MaxIter = 5
	cfg.Seed = 7
	tp, err := triclust.NewTopic(conformUsers(), triclust.WithSolverConfig(cfg))
	if err != nil {
		t.Fatalf("NewTopic: %v", err)
	}
	tp.SetConformanceMode(mode)
	return tp
}

// TestConformanceEnforceMatchesOffOnConformingStream: on a stream the
// profile accepts, enforce mode is invisible — identical results,
// byte-identical snapshots. The profile accumulates in every mode; the
// mode only gates what a quarantine verdict does.
func TestConformanceEnforceMatchesOffOnConformingStream(t *testing.T) {
	gated := conformTopic(t, triclust.ConformEnforce)
	control := conformTopic(t, triclust.ConformOff)
	for ts := 1; ts <= 12; ts++ {
		batch := conformBatch(ts, 3)
		a, err := gated.Process(ts, batch)
		if err != nil {
			t.Fatalf("enforce batch %d falsely rejected: %v", ts, err)
		}
		b, err := control.Process(ts, batch)
		if err != nil {
			t.Fatalf("control batch %d: %v", ts, err)
		}
		if a.Iterations != b.Iterations || a.Converged != b.Converged {
			t.Fatalf("batch %d solver diverged: %d/%v vs %d/%v",
				ts, a.Iterations, a.Converged, b.Iterations, b.Converged)
		}
	}
	var sa, sb bytes.Buffer
	if err := gated.Snapshot(&sa); err != nil {
		t.Fatalf("Snapshot gated: %v", err)
	}
	if err := control.Snapshot(&sb); err != nil {
		t.Fatalf("Snapshot control: %v", err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatalf("snapshots diverged: enforce %d bytes vs off %d bytes", sa.Len(), sb.Len())
	}
}

// TestConformanceProfileSurvivesSnapshotRestore: the learned profile is
// part of the snapshot — a restored topic reports the same statistics
// and quarantines the same anomaly, and continuing both streams keeps
// them byte-identical.
func TestConformanceProfileSurvivesSnapshotRestore(t *testing.T) {
	orig := conformTopic(t, triclust.ConformEnforce)
	for ts := 1; ts <= 10; ts++ {
		if _, err := orig.Process(ts, conformBatch(ts, 3)); err != nil {
			t.Fatalf("warm batch %d: %v", ts, err)
		}
	}
	var snap bytes.Buffer
	if err := orig.Snapshot(&snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := triclust.Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The mode is runtime policy, never serialized: a restored topic
	// starts ungated until the host re-stamps it.
	if got := restored.ConformanceMode(); got != triclust.ConformOff {
		t.Fatalf("restored mode %v, want off (mode is not topic state)", got)
	}
	restored.SetConformanceMode(triclust.ConformEnforce)

	ra, rb := orig.ConformanceReport(), restored.ConformanceReport()
	if ra == nil || rb == nil {
		t.Fatal("missing conformance report")
	}
	if ra.Observed != rb.Observed || ra.Scored != rb.Scored || !rb.Ready ||
		math.Abs(ra.Drift-rb.Drift) > 0 {
		t.Fatalf("restored report %+v, want %+v", rb, ra)
	}

	// The same anomaly is quarantined by both, with the same verdict.
	jump := conformBatch(11, 3)
	for i := range jump {
		jump[i].Time = 1000
	}
	var ea, eb *triclust.ConformanceError
	_, erra := orig.Process(1000, jump)
	_, errb := restored.Process(1000, jump)
	if !errors.As(erra, &ea) || !errors.As(errb, &eb) {
		t.Fatalf("anomaly errors: orig %v, restored %v; want ConformanceError from both", erra, errb)
	}
	if ea.Verdict.Worst != "time_step" || eb.Verdict.Worst != ea.Verdict.Worst || eb.Verdict.MaxZ != ea.Verdict.MaxZ {
		t.Fatalf("verdicts diverged: %+v vs %+v", ea.Verdict, eb.Verdict)
	}

	// Continue both streams; they stay byte-identical.
	for ts := 11; ts <= 14; ts++ {
		batch := conformBatch(ts, 3)
		if _, err := orig.Process(ts, batch); err != nil {
			t.Fatalf("orig batch %d: %v", ts, err)
		}
		if _, err := restored.Process(ts, batch); err != nil {
			t.Fatalf("restored batch %d: %v", ts, err)
		}
	}
	var sa, sb bytes.Buffer
	if err := orig.Snapshot(&sa); err != nil {
		t.Fatalf("Snapshot orig: %v", err)
	}
	if err := restored.Snapshot(&sb); err != nil {
		t.Fatalf("Snapshot restored: %v", err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("continued snapshots diverged after restore")
	}
}

// TestConformanceVerdictSurfaced: Process surfaces the verdict on the
// StreamResult once the profile is warm, a flag-band batch comes back
// Flagged (accepted in every mode), and the rejection error unwraps to
// the structured ConformanceError.
func TestConformanceVerdictSurfaced(t *testing.T) {
	tp := conformTopic(t, triclust.ConformEnforce)
	var last *triclust.StreamResult
	for ts := 1; ts <= 10; ts++ {
		out, err := tp.Process(ts, conformBatch(ts, 3))
		if err != nil {
			t.Fatalf("warm batch %d: %v", ts, err)
		}
		last = out
	}
	if last.Conformance == nil || last.Conformance.Status != triclust.Conforming {
		t.Fatalf("warm verdict %+v, want conforming", last.Conformance)
	}

	// Five tokens per tweet: tokens_per_tweet z = 4, token_rate z ≈ 6.7
	// — flag band, below quarantine, so enforce mode still accepts it.
	out, err := tp.Process(11, conformBatch(11, 5))
	if err != nil {
		t.Fatalf("flag-band batch rejected: %v", err)
	}
	v := out.Conformance
	if v == nil || v.Status != triclust.Flagged {
		t.Fatalf("flag-band verdict %+v, want flagged", v)
	}
	if v.Worst != "token_rate" {
		t.Fatalf("flag-band worst %q, want token_rate", v.Worst)
	}

	// An OOV spike is past quarantine; enforce rejects with the typed
	// error and the topic's stream position does not move.
	batches := tp.Batches()
	spike := conformBatch(12, 3)
	for i := range spike {
		spike[i].Tokens = []string{"zzz1", "zzz2", "zzz3"}
	}
	_, err = tp.Process(12, spike)
	var ce *triclust.ConformanceError
	if !errors.As(err, &ce) {
		t.Fatalf("spike error %v, want ConformanceError", err)
	}
	if ce.Verdict.Worst != "oov_rate" || ce.Verdict.Status != triclust.Quarantined {
		t.Fatalf("spike verdict %+v, want quarantined oov_rate", ce.Verdict)
	}
	if tp.Batches() != batches {
		t.Fatalf("rejected batch advanced the stream: %d -> %d", batches, tp.Batches())
	}
	// The slot is still free: a conforming batch at the same timestamp
	// is accepted.
	if _, err := tp.Process(12, conformBatch(12, 3)); err != nil {
		t.Fatalf("retry after rejection: %v", err)
	}
}
