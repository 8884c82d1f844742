package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"reflect"
	"testing"

	"triclust/internal/tgraph"
)

var updateBatchGolden = flag.Bool("update-batch-golden", false,
	"regenerate the binary batch request golden fixture (only when deliberately changing the batch wire format)")

const batchGoldenPath = "../../testdata/golden_batch_v2.bin"

// goldenBatch is the fixed content of the checked-in batch fixture: a
// small batch exercising every field shape the tweet frame carries —
// raw text (nil tokens), pre-tokenized (non-nil), and the explicit
// empty-token slice, plus a retweet edge.
func goldenBatch() (int, []tgraph.Tweet) {
	return 7, []tgraph.Tweet{
		{Text: "love prop37 win", User: 0, Time: 7, RetweetOf: -1, Label: tgraph.NoLabel},
		{Tokens: []string{"awful", "prop37", "scam"}, User: 1, Time: 7, RetweetOf: -1, Label: tgraph.NoLabel},
		{Tokens: []string{}, User: 2, Time: 8, RetweetOf: 0, Label: tgraph.NoLabel},
	}
}

// frame builds a batch frame by hand — version byte, caller-written
// payload, whole-body CRC-32C — so tests can craft inputs the public
// encoder refuses to produce.
func frame(t *testing.T, payload func(e *encoder)) []byte {
	t.Helper()
	e := encoder{buf: []byte{BatchWireVersion}}
	payload(&e)
	return closeFrame(e.buf, 0)
}

// untokenizedWithTokens is a 99-byte version 1 request frame that a build
// writing that version decoded without error: its one tweet ("love") says
// it has no tokens, then lists two ("prop37", "win"). The decoder dropped
// them and returned Tokens == nil, which re-encodes to 81 bytes. Version 2
// has one token-list value, its length plus one, so it cannot say both.
func untokenizedWithTokens() []byte {
	le := binary.LittleEndian
	b := []byte{1}
	b = le.AppendUint64(b, 7) // time
	b = le.AppendUint64(b, 1) // one tweet
	b = append(le.AppendUint64(b, 4), "love"...)
	b = append(b, 0)          // has tokens: no
	b = le.AppendUint64(b, 2) // and yet two
	b = append(le.AppendUint64(b, 6), "prop37"...)
	b = append(le.AppendUint64(b, 3), "win"...)
	for _, v := range []int64{0, 7, -1, -1} { // user, time, retweetOf, label
		b = le.AppendUint64(b, uint64(v))
	}
	return closeFrame(b, 0)
}

func TestBatchRequestRoundTrip(t *testing.T) {
	time, tweets := goldenBatch()
	data, err := EncodeBatchRequest(time, tweets)
	if err != nil {
		t.Fatalf("EncodeBatchRequest: %v", err)
	}
	gotTime, gotTweets, err := DecodeBatchRequest(data, nil)
	if err != nil {
		t.Fatalf("DecodeBatchRequest: %v", err)
	}
	if gotTime != time {
		t.Fatalf("time: got %d want %d", gotTime, time)
	}
	if !reflect.DeepEqual(gotTweets, tweets) {
		t.Fatalf("tweets differ:\n got %+v\nwant %+v", gotTweets, tweets)
	}
	// Nil-vs-empty token distinction must survive the wire: nil means
	// "tokenize the text", empty means "tokenized, no features".
	if gotTweets[0].Tokens != nil {
		t.Fatalf("tweet 0: nil tokens decoded as %v", gotTweets[0].Tokens)
	}
	if gotTweets[2].Tokens == nil || len(gotTweets[2].Tokens) != 0 {
		t.Fatalf("tweet 2: explicit empty tokens decoded as %v", gotTweets[2].Tokens)
	}
	// encode∘decode is a fixed point.
	again, err := EncodeBatchRequest(gotTime, gotTweets)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encode is not byte-identical: %d vs %d bytes", len(again), len(data))
	}
}

func TestBatchRequestEmpty(t *testing.T) {
	data, err := EncodeBatchRequest(3, nil)
	if err != nil {
		t.Fatalf("EncodeBatchRequest: %v", err)
	}
	gotTime, gotTweets, err := DecodeBatchRequest(data, nil)
	if err != nil {
		t.Fatalf("DecodeBatchRequest: %v", err)
	}
	if gotTime != 3 || len(gotTweets) != 0 {
		t.Fatalf("got time %d, %d tweets", gotTime, len(gotTweets))
	}
}

// TestBatchRequestScratchReuse drives the pooled-scratch contract the
// daemon relies on: decoding a small batch into a scratch slice that
// previously held tweets with large token sets must yield exactly the
// new batch, with no stale text or tokens bleeding through.
func TestBatchRequestScratchReuse(t *testing.T) {
	big := []tgraph.Tweet{
		{Text: "stale", Tokens: []string{"stale1", "stale2", "stale3", "stale4"}, User: 9, Time: 1, RetweetOf: 5, Label: tgraph.NoLabel},
		{Text: "stale too", Tokens: []string{"old"}, User: 8, Time: 1, RetweetOf: -1, Label: tgraph.NoLabel},
	}
	bigData, err := EncodeBatchRequest(1, big)
	if err != nil {
		t.Fatal(err)
	}
	_, scratch, err := DecodeBatchRequest(bigData, nil)
	if err != nil {
		t.Fatal(err)
	}
	small := []tgraph.Tweet{{Text: "fresh", User: 0, Time: 2, RetweetOf: -1, Label: tgraph.NoLabel}}
	smallData, err := EncodeBatchRequest(2, small)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeBatchRequest(smallData, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, small) {
		t.Fatalf("scratch reuse leaked state:\n got %+v\nwant %+v", got, small)
	}
}

func TestBatchRequestRejects(t *testing.T) {
	time, tweets := goldenBatch()
	valid, err := EncodeBatchRequest(time, tweets)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"too short", valid[:3], ErrCorrupt},
		{"truncated", valid[:len(valid)*2/3], ErrCorrupt},
		{"bit flip", func() []byte {
			d := append([]byte(nil), valid...)
			d[len(d)/2] ^= 0x10
			return d
		}(), ErrCorrupt},
		{"trailing after checksum", append(append([]byte(nil), valid...), 0), ErrCorrupt},
		{"future version", func() []byte {
			d := append([]byte(nil), valid...)
			d[0] = BatchWireVersion + 1
			// Recompute the trailer so only the version is wrong.
			binary.LittleEndian.PutUint32(d[len(d)-4:], Checksum(d[:len(d)-4]))
			return d
		}(), ErrVersion},
		{"trailing inside frame", frame(t, func(e *encoder) {
			e.int(1)
			e.uint(0)
			e.uint(0xdead) // extra payload after the declared tweets
		}), ErrCorrupt},
		{"hostile count", frame(t, func(e *encoder) {
			e.int(1)
			e.uint(1 << 50) // claims 2^50 tweets in a tiny frame
		}), ErrCorrupt},
		{"hostile token count", frame(t, func(e *encoder) {
			e.int(1)
			e.uint(1)
			e.string("x")
			e.uint(1 << 50) // claims 2^50-1 tokens
		}), ErrCorrupt},
		{"labeled tweet", frame(t, func(e *encoder) {
			e.int(1)
			e.uint(1)
			tw := tgraph.Tweet{Text: "x", User: 0, Time: 1, RetweetOf: -1, Label: 2}
			e.tweet(&tw)
		}), ErrCorrupt},
		{"non-minimal varint", frame(t, func(e *encoder) {
			e.buf = append(e.buf, 0x82, 0x00) // time 1, spelled in two bytes
			e.uint(0)
		}), ErrCorrupt},
		{"version 1 tweet with tokens flagged untokenized", untokenizedWithTokens(), ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, tweets, err := DecodeBatchRequest(tc.data, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got err %v, want %v", err, tc.want)
			}
			if tweets != nil {
				t.Fatalf("rejected frame returned %d tweets", len(tweets))
			}
		})
	}
}

func TestBatchRequestEncodeRejectsLabeled(t *testing.T) {
	labeled := []tgraph.Tweet{{Text: "x", User: 0, Time: 1, RetweetOf: -1, Label: 1}}
	if _, err := EncodeBatchRequest(1, labeled); err == nil {
		t.Fatal("EncodeBatchRequest accepted a labeled tweet")
	}
}

func sampleBatchResult() *BatchResult {
	return &BatchResult{
		Time:       11,
		Skipped:    false,
		Converged:  true,
		Iterations: 4,
		Tweets: []BatchSentiment{
			{Class: 0, Confidence: 0.875},
			{Class: 2, Confidence: 0.5},
		},
		Users: []BatchUserSentiment{
			{User: 0, Class: 1, Confidence: 1},
			{User: 3, Class: 0, Confidence: 0.25},
		},
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	res := sampleBatchResult()
	data := AppendBatchResponse(nil, res)
	got, err := DecodeBatchResponse(data)
	if err != nil {
		t.Fatalf("DecodeBatchResponse: %v", err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("response differs:\n got %+v\nwant %+v", got, res)
	}
	if !bytes.Equal(AppendBatchResponse(nil, got), data) {
		t.Fatal("response re-encode is not byte-identical")
	}
}

func TestBatchResponseRejectsCorruption(t *testing.T) {
	data := AppendBatchResponse(nil, &BatchResult{Time: 1, Iterations: 1})
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x01
	if _, err := DecodeBatchResponse(flip); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodeBatchResponse(data[:len(data)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation: got %v, want ErrCorrupt", err)
	}
	hostile := frame(t, func(e *encoder) {
		e.int(1)
		e.bool(false)
		e.bool(true)
		e.int(1)
		e.uint(1 << 50) // claims 2^50 tweet sentiments in a tiny frame
	})
	if _, err := DecodeBatchResponse(hostile); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile count: got %v, want ErrCorrupt", err)
	}
}

// TestGoldenBatchFixture pins the version 2 batch wire layout to the
// checked-in fixture: today's encoder must reproduce it byte-for-byte,
// and today's decoder must read it back to the known content. Run with
// -update-batch-golden only on a deliberate, version-bumped change.
func TestGoldenBatchFixture(t *testing.T) {
	time, tweets := goldenBatch()
	if *updateBatchGolden {
		data, err := EncodeBatchRequest(time, tweets)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(batchGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", batchGoldenPath, len(data))
	}
	golden, err := os.ReadFile(batchGoldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (generate with -update-batch-golden): %v", err)
	}
	data, err := EncodeBatchRequest(time, tweets)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("encoder no longer reproduces the golden fixture (%d vs %d bytes); if the format change is deliberate, bump BatchWireVersion and regenerate", len(data), len(golden))
	}
	gotTime, gotTweets, err := DecodeBatchRequest(golden, nil)
	if err != nil {
		t.Fatalf("golden fixture does not decode: %v", err)
	}
	if gotTime != time || !reflect.DeepEqual(gotTweets, tweets) {
		t.Fatalf("golden fixture content drifted: time %d, %+v", gotTime, gotTweets)
	}
}

// FuzzBatchWireDecode hammers the batch request decoder with hostile
// bytes, seeded from the golden fixture and targeted mutations of it.
// This is the exact byte stream an unauthenticated client hands the
// daemon's ingest path, so the bar is: never panic, never over-allocate,
// and on any accepted input encode∘decode must be the identity — a
// decoded batch re-frames to the very bytes it came from, which is what
// lets journaling treat the two wire formats as one stream.
func FuzzBatchWireDecode(f *testing.F) {
	if golden, err := os.ReadFile(batchGoldenPath); err == nil {
		f.Add(golden)
		flip := append([]byte(nil), golden...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
		f.Add(golden[:len(golden)*2/3])
	}
	time, tweets := goldenBatch()
	if data, err := EncodeBatchRequest(time, tweets); err == nil {
		f.Add(data)
	}
	if empty, err := EncodeBatchRequest(0, nil); err == nil {
		f.Add(empty)
	}
	f.Add([]byte{BatchWireVersion})
	f.Add([]byte{})
	// The version 1 frame whose tokens the old decoder dropped, as sent
	// and with its body re-sealed under version 2.
	v1 := untokenizedWithTokens()
	f.Add(v1)
	f.Add(closeFrame(append([]byte{BatchWireVersion}, v1[1:len(v1)-4]...), 0))
	f.Add(AppendBatchResponse(nil, sampleBatchResult()))
	f.Add(AppendBatchResponse(nil, &BatchResult{Skipped: true}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if res, err := DecodeBatchResponse(data); err == nil {
			if again := AppendBatchResponse(nil, res); !bytes.Equal(again, data) {
				t.Fatalf("response encode∘decode is not the identity: %d vs %d bytes", len(again), len(data))
			}
		}
		batchTime, decoded, err := DecodeBatchRequest(data, nil)
		if err != nil {
			if decoded != nil {
				t.Fatalf("error %v returned %d tweets (partial apply)", err, len(decoded))
			}
			return // rejected cleanly — the common, correct outcome
		}
		again, err := EncodeBatchRequest(batchTime, decoded)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("encode∘decode is not the identity: %d vs %d bytes", len(again), len(data))
		}
	})
}
