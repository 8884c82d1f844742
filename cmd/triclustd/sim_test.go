package main

// TestClusterSim is the cluster's schedule explorer: one simulator and one
// oracle in place of a hand-written scenario per rule. A run is three
// clocked shards (replication factor 2 on odd seeds, 3 on even ones,
// rebalancer and enforce mode on), each on its own fault.Script and its own
// link into one fault network, driven through events: creates, batches and
// reads at chosen entry shards, operator moves, one event that races a
// topic's batch, move and reads, crashes and reboots, a zombie (front gone,
// server running, a stale client writing to it), one permanent kill,
// partitions, held probes, dropped requests, lost install and replica acks,
// blind placement queries, hand-off PUTs that lose their answers, ENOSPC on
// and off, ticks. A seed draws its events (seed=N); a schedule is a named
// list of them (schedule=name). Each event completes and the loops park
// before the next; requests are served in process, and a tick wakes each
// shard's tick and watches one at a time in a fixed order (cluster_test.go),
// so a run fixes every interleaving and replays. The race leg
// (race_on_test.go) runs each tick's loops and the race's requests at once
// instead, so that -race sees them overlap. The oracle holds every
// topic to a control fed exactly the batches the cluster acked: at
// quiescence exactly one shard serves each created topic and every entry
// shard reaches it with the control's bytes (epoch aligned); every 200 read
// equals the control at the position its ETag names, and a 304 names the
// ETag it was sent; ETags are monotone per (topic, epoch); after every event
// at most one shard admits writes per (topic, epoch); every redirect chain
// ends within simShards hops (a 404 ends one: the ring owner answers while a
// hand-off toward it is parked or a promotion is pending), and every 307
// names the shard it leads to; a 200 move answers for what it did (checkMove);
// a zombie fenced for a topic redirects it from then on; and a storage error
// answers only after a full disk (judge). The fault model is the one the
// design claims to survive: one shard down at a time, killed only once every
// live follower caught up (the simulator settles first), a full disk only
// while every shard is up, partitions that heal before the detector's
// threshold, a client that creates a name once, and an operator who
// re-points a hand-off parked toward a shard killed for good. Not asserted:
// finite factors (a diverged step is acked today), and, once a shard is dead
// for good, that every entry reaches a topic whose route ends at the dead
// shard or short of it (stranded: two known defects). A failure prints its
// events and the command that replays it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triclust"
	"triclust/internal/fault"
	"triclust/internal/repl"
	"triclust/internal/store"
)

const (
	simSeeds  = 16  // the tier-1 seeds: seed=1 … seed=simSeeds
	simShards = 3   // shards per run; also the redirect bound
	simTopics = 5   // topic names per run
	simEvents = 150 // drawn events per run
	simSettle = 12  // ticks a settle may take before the cluster is stuck
)

func TestClusterSim(t *testing.T) {
	runSims(t, 1, simSeeds)
	for _, sc := range simSchedules {
		t.Run("schedule="+sc.name, func(t *testing.T) {
			simulate(t, "go test -run 'TestClusterSim/^schedule="+sc.name+"$' ./cmd/triclustd/", 1, sc.drive)
		})
	}
}

// runSims runs seeds from … to as subtests seed=N. Each passing seed logs
// the digest of its outcome, so two builds compare seed by seed
// (scripts/simwide-gate.sh collects them from the wide run).
func runSims(t *testing.T, from, to int64) {
	for seed := from; seed <= to; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("outcome sha256 %x", sha256.Sum256([]byte(runSim(t, seed).outcome())))
		})
	}
}

// runSim runs seed: simEvents events drawn from it.
func runSim(t *testing.T, seed int64) *sim {
	return simulate(t, fmt.Sprintf("go test -tags simwide -run 'TestClusterSimWide/^seed=%d$' ./cmd/triclustd/", seed), seed, func(s *sim) {
		for range simEvents {
			s.step()
		}
	})
}

// TestSimSeedsReplay runs a few seeds twice each and requires one
// outcome: the same events with the same results, the same lines logged
// by the shards during each, and the same topics served at the end, byte
// for byte. A new source of variance in the harness or in the loops
// fails it. The race leg runs ticks and the concurrent event at once, so
// it does not replay.
func TestSimSeedsReplay(t *testing.T) {
	if raceLeg {
		t.Skip("the race leg runs the loops at once; its runs do not replay")
	}
	for _, seed := range []int64{2, 3, 4, 7} {
		first := runSim(t, seed).outcome()
		if again := runSim(t, seed).outcome(); again != first {
			a, b := strings.Split(first, "\n"), strings.Split(again, "\n")
			k := 0
			for k < min(len(a), len(b)) && a[k] == b[k] {
				k++
			}
			t.Fatalf("seed %d: two runs differ at line %d:\n  %s\n  %s", seed, k, a[min(k, len(a)-1)], b[min(k, len(b)-1)])
		}
	}
}

// simTopic is one topic name of a run and its control.
type simTopic struct {
	idx     int
	name    string
	created bool
	day     int // the last batch time sent
	ctl     *triclust.Topic
	hist    []simPos       // the control after 0, 1, … acked batches
	seen    map[uint64]int // the highest batch count read, per epoch
}

// simPos is the control at one position: what a read of it must answer.
type simPos struct {
	draws    uint64
	snap     []byte   // the snapshot at epoch 0
	features string   // the /features vocabulary and labels, as JSON
	users    []string // each user's estimate as JSON ("": no history)
}

type sim struct {
	t       *testing.T
	replay  string // the command that replays the run
	rng     *rand.Rand
	tc      *testCluster
	net     *simNet
	scripts []*fault.Script
	topics  []*simTopic
	log     []string
	logged  []int  // len(tc.logs) at the end of each event
	down    int    // the shard crashed or turned zombie (-1: none)
	zombie  bool   // down is a zombie: its server still runs
	dead    int    // the shard killed for good (-1: none)
	deadURL string // its base URL ("": none)
	full    []bool
	wasFull bool            // some disk has been full since the last settle
	fenced  map[string]bool // the topics the zombie answered epoch_mismatch for
}

// simulate sets up a run of three shards, replication factor 2 on odd
// seeds and 3 on even ones, drives it, and ends it with quiesce; replay is
// the command a failure prints.
func simulate(t *testing.T, replay string, seed int64, drive func(*sim)) *sim {
	ro := fastRepl()
	ro.Factor = 2 + int(seed+1)%2
	ro.ProbeTimeout = time.Minute // only the clock releases a held probe
	ro.AutoRebalance = true
	tc := newCluster(t, simShards, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    ro,
		peer:    peerOptions{Timeout: time.Minute},
		// A promotion replays its tail ungated and must still match the
		// ungated control byte for byte.
		conform: triclust.ConformEnforce,
	}, true)
	s := &sim{t: t, replay: replay, rng: rand.New(rand.NewSource(seed)), tc: tc, down: -1, dead: -1,
		net: &simNet{tc: tc, every: tc.opts.probeEvery, healed: 1}, full: make([]bool, simShards)}
	tc.dump = func() string { return strings.Join(s.events(true), "\n") }
	for i := range tc.shards {
		s.scripts = append(s.scripts, fault.NewScript())
		tc.shards[i].transport = &simLink{net: s.net, from: i}
		tc.useFS(i, s.scripts[i])
	}
	tc.parkLoops()
	for i := range simTopics {
		req := harnessCreateReq(i)
		s.topics = append(s.topics, &simTopic{idx: i, name: req.Name, ctl: controlTopic(t, req), seen: map[uint64]int{}})
	}
	drive(s)
	s.quiesce()
	return s
}

// events is the run so far, one line each: each event with its result,
// then the lines the shards logged while it ran, indented and sorted (loops
// that log in one order may write in another, as a restart restoring its
// topics in map order does). With tail, the lines logged after the last
// event ended follow, sorted too.
func (s *sim) events(tail bool) []string {
	s.tc.logMu.Lock()
	logs := slices.Clone(s.tc.logs)
	s.tc.logMu.Unlock()
	var out []string
	from := 0
	lines := func(to int) {
		for _, l := range slices.Sorted(slices.Values(logs[from:to])) {
			out = append(out, "    "+l)
		}
		from = to
	}
	for k, line := range s.log {
		out = append(out, line)
		if k < len(s.logged) {
			lines(s.logged[k])
		} else {
			lines(len(logs))
		}
	}
	if tail {
		lines(len(logs))
	}
	return out
}

// outcome is what a run leaves, one line each: its events, then every
// topic a live shard serves at the end, with its position, epoch and
// snapshot bytes.
func (s *sim) outcome() string {
	out := s.events(false)
	for i, sd := range s.tc.shards {
		if i == s.dead {
			continue
		}
		for _, tp := range sd.srv.served() {
			var snap bytes.Buffer
			_ = tp.eng.Snapshot(&snap)
			b, d := tp.eng.StreamPos()
			out = append(out, fmt.Sprintf("shard %d serves %s at %d batches, %d draws, epoch %d: %x", i, tp.name, b, d, tp.eng.Epoch(), snap.Bytes()))
		}
	}
	return strings.Join(out, "\n")
}

// event logs one event; the func it returns ends it: the result is logged,
// the faults armed for it are disarmed, the loops parked, and the
// one-writer check runs.
func (s *sim) event(format string, args ...any) func(result string) {
	n := len(s.log)
	s.log = append(s.log, fmt.Sprintf(format, args...))
	return func(result string) {
		s.log[n] += " → " + result
		s.net.disarm()
		s.tc.parkLoops()
		s.tc.logMu.Lock()
		s.logged = append(s.logged, len(s.tc.logs))
		s.tc.logMu.Unlock()
		s.checkWriters()
	}
}

// fail reports a broken property with the command that replays the run
// and its events, each with the lines the shards logged while it ran: a
// failing seed prints the same every time.
func (s *sim) fail(format string, args ...any) {
	s.t.Helper()
	s.tc.dump = nil
	s.t.Fatalf("%s\nreplay: %s\nevents:\n  %s", fmt.Sprintf(format, args...), s.replay, strings.Join(s.events(true), "\n  "))
}

// step draws one event and runs it; an event whose precondition does not
// hold is a tick.
func (s *sim) step() {
	tp := s.topics[s.rng.Intn(len(s.topics))]
	entry, i, j, k := s.rng.Intn(simShards), s.rng.Intn(simShards), s.rng.Intn(simShards), s.rng.Intn(6)
	switch r := s.rng.Intn(100); {
	case r < 6 && !tp.created:
		s.create(tp, entry)
	case r < 30:
		s.batch(tp, entry, false)
	case r < 44:
		s.read(tp, entry, k%3, k%harnessUsers)
	case r < 51:
		s.move(tp, entry, i, false)
	case r < 62:
		s.tick()
	case r < 67 && tp.created:
		s.race(tp, entry, j, i, k%3, k%harnessUsers)
	case r < 72 && s.down < 0 && i != s.dead:
		s.kill(i, k%2 == 0, false)
	case r >= 72 && r < 76 && s.down >= 0:
		s.reboot()
	case r == 76 && s.down < 0 && s.dead < 0:
		s.kill(i, false, true)
	case r >= 77 && r < 82 && i != j && s.up(i) && s.up(j) && s.net.cutPair(i, j, s.tc.opts.repl.ProbeFailures-1):
		s.event("partition %d|%d", i, j)("cut")
	case r >= 82 && r < 85:
		j = (i + 1 + j%(simShards-1)) % simShards
		done := s.event("hold the next probe of shard %d to %d, tick", i, j)
		s.net.arm(&s.net.hold, i*simShards+j, false)
		s.tc.tick()
		done(s.net.age())
	case r >= 85 && r < 89:
		s.arm("drop the next peer request of shard %d", i, &s.net.drop)
	case r >= 89 && r < 91:
		s.move(tp, entry, i, true)
	case r >= 91 && r < 93:
		s.arm("lose the ack of the next replica frame shard %d ships", i, &s.net.shipLost)
	case r >= 93 && r < 97 && i != s.dead && (s.full[i] || s.down < 0):
		// A follower that cannot store a frame is out of sync and the
		// primary acks without it: a full disk beside a down shard is two
		// faults.
		s.enospc(i, !s.full[i])
	case r >= 97 && s.zombie && s.down >= 0:
		s.batch(tp, s.down, true)
	default:
		s.tick()
	}
}

// ——— the schedules ———

// simSchedules are the named event lists TestClusterSim runs beside its
// seeds, each down a path the draws rarely reach, each on seed 1's set-up
// (replication factor 2) and judged by the same oracle. A schedule expects
// the answer it is there to reach, so that it cannot pass by missing it.
var simSchedules = []struct {
	name  string
	drive func(s *sim)
}{
	// A primary turns zombie and its follower promotes the topic: the
	// zombie's next write is fenced by the promoted copy, and the one after
	// that is redirected.
	{"zombie", func(s *sim) {
		tp := s.topics[0]
		p, _, _ := s.start(tp, 3)
		s.kill(p, true, false)
		s.ticks(5)
		s.expect(s.batch(tp, p, true), http.StatusConflict, codeEpochMismatch)
		s.batch(tp, p, true)
	}},
	// A hand-off lands, but its ack and every placement query are lost, so
	// the source parks it. A retry naming another target finds it landed:
	// the source drops its copy and redirects the move to where it landed.
	{"resume-elsewhere", func(s *sim) {
		tp := s.topics[1]
		src, u, t := s.start(tp, 3)
		s.arm("blind the placement queries of shard %d", src, &s.net.blind)
		s.expect(s.move(tp, src, t, true), http.StatusBadGateway, codeMoveFailed)
		s.expect(s.move(tp, src, u, false), http.StatusOK, "")
	}},
	// A parked hand-off is resumed by a move to its own target, which then
	// dies: the source, its first candidate, promotes the topic and seeds
	// its own follower.
	{"resume-then-failover", func(s *sim) {
		tp := s.topics[2]
		src, _, t := s.start(tp, 3)
		s.arm("blind the placement queries of shard %d", src, &s.net.blind)
		s.expect(s.move(tp, src, t, true), http.StatusBadGateway, codeMoveFailed)
		s.expect(s.move(tp, src, t, false), http.StatusOK, "")
		s.batch(tp, t, false)
		s.batch(tp, t, false)
		s.kill(t, false, false)
		s.ticks(5)
		s.batch(tp, src, false)
	}},
	// Two parked hand-offs answer 503 handoff_pending, never a redirect
	// loop, and each resumes to its verdict: one whose install never arrived
	// is installed again; one whose target moved the topic on is refused by
	// that target's fence, and its source drops its copy for good, so a
	// batch sent there while it is cut off from its follower is redirected,
	// not acked.
	{"parked", func(s *sim) {
		a, b := s.topics[0], s.topics[4]
		src, _, t := s.start(a, 2)
		s.arm("drop the next peer request of shard %d", src, &s.net.drop)
		s.arm("blind the placement queries of shard %d", src, &s.net.blind)
		s.expect(s.move(a, src, t, false), http.StatusBadGateway, codeMoveFailed)
		s.expect(s.read(a, t, 0, 0), http.StatusServiceUnavailable, codeHandoffPending)
		src, t, u := s.start(b, 2)
		s.arm("blind the placement queries of shard %d", src, &s.net.blind)
		s.expect(s.move(b, src, t, true), http.StatusBadGateway, codeMoveFailed)
		s.expect(s.read(b, src, 1, 0), http.StatusServiceUnavailable, codeHandoffPending)
		s.expect(s.move(b, t, u, false), http.StatusOK, "")
		s.batch(b, u, false)
		s.tick()
		if s.net.cutPair(src, t, s.tc.opts.repl.ProbeFailures-1) {
			s.event("partition %d|%d", src, t)("cut")
		}
		s.batch(b, src, false)
	}},
	// The owner P moves a topic to the third shard B, which ships it back
	// to P, its follower, while P's own follower A keeps the replica of
	// P's epoch. P dies: A must see that B holds the topic and not promote
	// its stale replica, so the batch and the reads sent at A end at B.
	{"stale-promotion", func(s *sim) {
		tp := s.topics[3]
		p, a, b := s.start(tp, 3)
		s.expect(s.move(tp, p, b, false), http.StatusOK, "")
		s.batch(tp, b, false)
		s.kill(p, false, false)
		s.ticks(5)
		s.batch(tp, a, false)
		for kind := range simReads {
			s.read(tp, a, kind, 0)
		}
	}},
	// A hand-off lands on T, but the source S parks it; T moves the topic
	// on toward U and parks that hand-off too. A move at S naming U asks
	// the recorded target T first, which holds the topic parked at a later
	// epoch: the hand-off landed there, so S drops its copy and redirects
	// the move to T, which resumes its own hand-off onto U.
	{"recorded-target-parked", func(s *sim) {
		tp := s.topics[1]
		src, t, u := s.start(tp, 3)
		s.arm("blind the placement queries of shard %d", src, &s.net.blind)
		s.expect(s.move(tp, src, t, true), http.StatusBadGateway, codeMoveFailed)
		s.arm("drop the next peer request of shard %d", t, &s.net.drop)
		s.arm("blind the placement queries of shard %d", t, &s.net.blind)
		s.expect(s.move(tp, t, u, false), http.StatusBadGateway, codeMoveFailed)
		if a := s.move(tp, src, u, false); a.code != http.StatusOK || a.at != s.tc.url(t) {
			s.fail("the schedule reached %s at %s, not 200 at shard %d", a, a.at, t)
		}
	}},
	// A hand-off lands on T, but the source S parks it; T moves the topic
	// on toward U, which is down, and parks that hand-off. On the next tick
	// S resumes toward T, which no longer answers the install: S asks T,
	// which holds the topic parked at a later epoch, and S drops its copy.
	{"install-target-parked", func(s *sim) {
		tp := s.topics[2]
		src, t, u := s.start(tp, 3)
		s.kill(u, false, false)
		s.arm("blind the placement queries of shard %d", src, &s.net.blind)
		s.expect(s.move(tp, src, t, true), http.StatusBadGateway, codeMoveFailed)
		s.expect(s.move(tp, t, u, false), http.StatusBadGateway, codeMoveFailed)
		s.arm("lose the answer to every hand-off PUT of shard %d", src, &s.net.mute)
		s.tick()
		if p := s.tc.shards[src].srv.table.Parked(); len(p) > 0 {
			s.fail("shard %d still holds %v parked after the tick", src, p)
		}
	}},
}

// start creates tp at its ring owner and sends it n batches there; it
// returns the shards of tp's replica set in ring order: the owner, the
// owner's follower at replication factor 2, and the third.
func (s *sim) start(tp *simTopic, n int) (owner, next, last int) {
	set := s.tc.ring.ReplicaSet(tp.name, simShards)
	owner, next, last = s.tc.peerIdx(set[0]), s.tc.peerIdx(set[1]), s.tc.peerIdx(set[2])
	s.create(tp, owner)
	for range n {
		s.batch(tp, owner, false)
	}
	return owner, next, last
}

func (s *sim) ticks(n int) {
	for range n {
		s.tick()
	}
}

// expect fails a schedule whose answer is not the one it exists to reach.
func (s *sim) expect(a reply, code int, ec string) {
	if a.code != code || a.ec != ec {
		s.fail("the schedule reached %s, not %d %s", a, code, ec)
	}
}

// up reports whether shard i is neither down nor dead.
func (s *sim) up(i int) bool { return i != s.down && i != s.dead }

// ——— the events ———

// create is a client's create of a name it has not seen created; a 409
// topic_exists means an earlier create landed unacknowledged.
func (s *sim) create(tp *simTopic, entry int) {
	done := s.event("create %s at %d", tp.name, entry)
	a := s.do("POST", entry, "/v1/topics", harnessCreateReq(tp.idx))
	if a.code == http.StatusCreated || a.code == http.StatusConflict && a.ec == codeTopicExists {
		tp.created = true
		s.record(tp)
	}
	done(a.String())
}

// batch sends the topic's next batch at shard entry or, zombie set, straight
// into the zombie's server, as a client still holding a connection to it
// would; a 200 feeds the control. Once the zombie answered epoch_mismatch
// for a topic, it has fenced its copy, and its next answer for the topic is
// a 307.
func (s *sim) batch(tp *simTopic, entry int, zombie bool) reply {
	tp.day++
	req := harnessBatch(tp.idx, tp.day)
	done := s.event("batch %s day %d at %d (zombie %v)", tp.name, tp.day, entry, zombie)
	var a reply
	if zombie {
		a = call(s.t, s.tc.shards[entry].srv, "POST", "/v1/topics/"+tp.name+"/batches", req, nil)
		s.judge(a)
		if s.fenced[tp.name] && a.code != http.StatusTemporaryRedirect {
			s.fail("the fenced zombie shard %d answered %s for %s, want a 307", entry, a, tp.name)
		}
		if a.ec == codeEpochMismatch {
			s.fenced[tp.name] = true
		}
	} else {
		a = s.do("POST", entry, "/v1/topics/"+tp.name+"/batches", req)
	}
	if a.code == http.StatusOK {
		if !tp.created {
			s.fail("%s acked a batch before any create was acked", tp.name)
		}
		if _, err := tp.ctl.Process(req.Time, specTweets(req)); err != nil {
			s.fail("control %s day %d: %v", tp.name, req.Time, err)
		}
		s.record(tp)
	}
	done(a.String())
	return a
}

// record appends the control's current position to its history.
func (s *sim) record(tp *simTopic) {
	_, draws := tp.ctl.StreamPos()
	var snap bytes.Buffer
	if err := tp.ctl.Snapshot(&snap); err != nil {
		s.fail("control snapshot: %v", err)
	}
	v := tp.ctl.ReadView()
	features, _ := json.Marshal(featuresResponse{Vocabulary: tp.ctl.Vocabulary(), Features: toJSON(v.FeatureSentiments())})
	pos := simPos{draws: draws, snap: snap.Bytes(), features: string(features)}
	for u := range harnessUsers {
		est := ""
		if e, ok := v.UserEstimate(u); ok {
			b, _ := json.Marshal(oneJSON(e))
			est = string(b)
		}
		pos.users = append(pos.users, est)
	}
	tp.hist = append(tp.hist, pos)
}

var simReads = [...]string{"users", "features", "snapshot"}

func simReadPath(tp *simTopic, kind, user int) string {
	path := "/v1/topics/" + tp.name + "/" + simReads[kind]
	if kind == 0 {
		path += "/" + strconv.Itoa(user)
	}
	return path
}

func (s *sim) read(tp *simTopic, entry, kind, user int) reply {
	path := simReadPath(tp, kind, user)
	done := s.event("read %s at %d", path, entry)
	a := s.do("GET", entry, path, nil)
	if a.code == http.StatusOK {
		s.checkRead(tp, kind, user, a)
	}
	done(a.String())
	return a
}

// race sends tp's next batch and its move to target at shard entry, and
// two reads of it at shard reader, the second conditional on the first's
// ETag. The replayed run sends the four one by one, in an order drawn from
// the seed (the reads in their order); the race leg sends the batch, the
// move and the reads at once, so that under -race the read plane, the
// write path and a hand-off run into each other. The target is neither the
// dead shard nor the one the topic is routed to.
func (s *sim) race(tp *simTopic, entry, reader, target, kind, user int) {
	for target == s.dead || target == s.routesTo(tp.name, entry) {
		target = (target + 1) % simShards
	}
	tp.day++
	req, path := harnessBatch(tp.idx, tp.day), simReadPath(tp, kind, user)
	order, reads := s.rng.Perm(4), 2
	for i, k := range order {
		if k >= 2 {
			order[i], reads = reads, reads+1
		}
	}
	done := s.event("race: batch %s day %d and move it to %d at %d, read %s twice at %d, in order %v", tp.name, tp.day, target, entry, path, reader, order)
	held := s.holders(tp.name)
	var a [4]reply // the batch, the move, the two reads
	net := hops{s.tc.noRedirect, simShards}
	send := [...]func(){
		func() { a[0] = call(nil, net, "POST", s.tc.url(entry)+"/v1/topics/"+tp.name+"/batches", req, nil) },
		func() {
			a[1] = call(nil, net, "POST", s.tc.url(entry)+"/v1/cluster/move", moveRequest{Topic: tp.name, Target: s.tc.url(target)}, nil)
		},
		func() { a[2] = call(nil, net, "GET", s.tc.url(reader)+path, nil, nil) },
		func() { a[3] = call(nil, net, "GET", s.tc.url(reader)+path, nil, nil, "If-None-Match", a[2].etag) },
	}
	if raceLeg {
		var wg sync.WaitGroup
		for _, f := range []func(){send[0], send[1], func() { send[2](); send[3]() }} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
			}()
		}
		wg.Wait()
	} else {
		for _, k := range order {
			send[k]()
		}
	}
	if err := errors.Join(a[0].err, a[1].err, a[2].err, a[3].err); err != nil {
		s.fail("%v", err)
	}
	for _, r := range a {
		s.judge(r)
	}
	if a[0].code == http.StatusOK {
		if !tp.created {
			s.fail("%s acked a batch before any create was acked", tp.name)
		}
		if _, err := tp.ctl.Process(req.Time, specTweets(req)); err != nil {
			s.fail("control %s day %d: %v", tp.name, req.Time, err)
		}
		s.record(tp)
	}
	for _, r := range a[2:] {
		if r.code == http.StatusOK {
			s.checkRead(tp, kind, user, r)
		}
	}
	if a[1].code == http.StatusOK {
		batches := len(tp.hist) - 1
		if raceLeg {
			batches = -1
		} else if a[0].code == http.StatusOK && slices.Index(order, 0) > slices.Index(order, 1) {
			batches-- // the batch was sent after the move
		}
		s.checkMove(tp, target, a[1], held, batches)
	}
	if a[3].code == http.StatusNotModified && (a[2].code != http.StatusOK || a[3].etag != a[2].etag) {
		s.fail("a read of %s answered 304 with ETag %q after %s with ETag %q", path, a[3].etag, a[2], a[2].etag)
	}
	done(fmt.Sprintf("%s; %s; %s, %s", a[0], a[1], a[2], a[3]))
}

// checkRead holds a 200 read to the control at the position it names.
func (s *sim) checkRead(tp *simTopic, kind, user int, a reply) {
	var batches int
	var draws, epoch uint64
	var at0 []byte
	if kind == 2 {
		var got *triclust.Topic
		got, at0 = s.restore(a.body)
		batches, draws = got.StreamPos()
		epoch = got.Epoch()
	} else if _, err := fmt.Sscanf(a.etag, `"b%d-r%x-e%d"`, &batches, &draws, &epoch); err != nil {
		s.fail("read of %s: ETag %q: %v", tp.name, a.etag, err)
	}
	if batches >= len(tp.hist) || tp.hist[batches].draws != draws {
		s.fail("read of %s at %d batches, %d draws: not a position the control reached (%d acked)", tp.name, batches, draws, len(tp.hist)-1)
	}
	if last, ok := tp.seen[epoch]; ok && batches < last {
		s.fail("read of %s at epoch %d went back from %d to %d batches", tp.name, epoch, last, batches)
	}
	tp.seen[epoch] = batches
	pos, got, want := tp.hist[batches], "", ""
	switch kind {
	case 0:
		var body struct {
			sentimentJSON
			Convergence convergenceJSON `json:"convergence"`
		}
		err := json.Unmarshal(a.body, &body)
		b, _ := json.Marshal(body.sentimentJSON)
		got, want = fmt.Sprint(string(b), body.Convergence.Batches, err), fmt.Sprint(pos.users[user], batches, nil)
	case 1:
		var body featuresResponse
		err := json.Unmarshal(a.body, &body)
		b, _ := json.Marshal(featuresResponse{Vocabulary: body.Vocabulary, Features: body.Features})
		got, want = fmt.Sprint(string(b), err), fmt.Sprint(pos.features, nil)
	case 2:
		got, want = string(at0), string(pos.snap)
	}
	if got != want {
		s.fail("%s of %s at %d batches, epoch %d, differs from the control", simReads[kind], tp.name, batches, epoch)
	}
}

// restore decodes a served snapshot and re-encodes it at epoch 0, the
// control's.
func (s *sim) restore(snap []byte) (*triclust.Topic, []byte) {
	got, err := triclust.Restore(bytes.NewReader(snap))
	var b bytes.Buffer
	if err == nil {
		epoch := got.Epoch()
		got.SetEpoch(0)
		err = got.Snapshot(&b)
		got.SetEpoch(epoch)
	}
	if err != nil {
		s.fail("served snapshot: %v", err)
	}
	return got, b.Bytes()
}

// move asks shard entry to move tp to target, never the dead shard; with
// lostAck the first hand-off PUT any shard sends meanwhile lands, but its
// answer is lost.
func (s *sim) move(tp *simTopic, entry, target int, lostAck bool) reply {
	if target == s.dead {
		target = (target + 1) % simShards
	}
	done := s.event("move %s to %d at %d (install ack lost: %v)", tp.name, target, entry, lostAck)
	if lostAck {
		s.net.arm(&s.net.lose, simShards, false)
	}
	held := s.holders(tp.name)
	a := s.do("POST", entry, "/v1/cluster/move", moveRequest{Topic: tp.name, Target: s.tc.url(target)})
	if a.code == http.StatusOK {
		s.checkMove(tp, target, a, held, len(tp.hist)-1)
	}
	done(a.String())
	return a
}

// holders returns the reply a move from each shard must give, but for its
// target and batch count: a served copy hands off one epoch past its own, a
// parked hand-off resumes at its tombstone's epoch (epoch 0: nothing held).
func (s *sim) holders(name string) (h [simShards]moveResponse) {
	for i, sd := range s.tc.shards {
		h[i] = moveResponse{Topic: name, Source: s.tc.url(i)}
		if tp := servedTopic(sd.srv, name); tp != nil {
			h[i].Epoch = tp.eng.Epoch() + 1
		} else if ts, _ := sd.srv.table.Tombstone(name); slices.Contains(sd.srv.table.Parked(), name) {
			h[i].Epoch, h[i].Resumed = ts.Epoch, true
		}
	}
	return h
}

// checkMove holds a 200 move of tp to target to what it did: the reply is
// the one the answering shard's holding called for (held, taken before the
// move), with the target and the control's batch count (batches < 0: either
// of two, in the race leg); and the target serves the topic at its epoch.
func (s *sim) checkMove(tp *simTopic, target int, a reply, held [simShards]moveResponse, batches int) {
	var got moveResponse
	err := json.Unmarshal(a.body, &got)
	want := held[slices.Index(s.tc.peers, a.at)]
	want.Target, want.Batches = s.tc.url(target), batches
	if batches < 0 {
		want.Batches = got.Batches
	}
	if err != nil || got != want {
		s.fail("a move of %s answered %+v (%v), want %+v", tp.name, got, err, want)
	}
	if at := servedTopic(s.tc.shards[target].srv, tp.name); at == nil || at.eng.Epoch() != got.Epoch {
		s.fail("shard %d does not serve %s at epoch %d after its move there", target, tp.name, got.Epoch)
	}
}

func (s *sim) tick() {
	done := s.event("tick")
	s.tc.tick()
	done(s.net.age())
}

// arm arms one fault of shard i for the next event.
func (s *sim) arm(what string, i int, fault *atomic.Int32) {
	done := s.event(what, i)
	s.net.arm(fault, i, true)
	done("armed")
}

// kill crashes shard i, or takes its listener away and leaves its server
// running (zombie), or kills it for good, once the cluster has settled.
func (s *sim) kill(i int, zombie, forGood bool) {
	s.settle()
	done := s.event("kill shard %d (zombie %v, for good %v)", i, zombie, forGood)
	if zombie {
		s.tc.shards[i].sh.kill()
	} else {
		s.tc.killShard(i)
	}
	if forGood {
		s.dead, s.deadURL = i, s.tc.url(i)
	} else {
		s.down, s.zombie, s.fenced = i, zombie, map[string]bool{}
	}
	done("down")
}

func (s *sim) reboot() {
	i := s.down
	done := s.event("reboot shard %d", i)
	if s.zombie {
		s.tc.shards[i].srv.Close()
	}
	s.tc.boot(i)
	s.down = -1
	done("up")
}

func (s *sim) enospc(i int, full bool) {
	done := s.event("ENOSPC on shard %d: %v", i, full)
	s.full[i] = full
	s.wasFull = s.wasFull || full
	s.scripts[i].SetBudget(map[bool]int64{true: 0, false: -1}[full])
	done("set")
}

// ——— settling and the end of a run ———

// settle brings the down shard back and lifts every fault, then ticks
// until no hand-off is parked, no topic degraded, every live follower
// synced, the dead shard declared down everywhere, and each created topic
// served by exactly one shard that every entry routes to — or fails the
// run as stuck. The operator re-points hand-offs parked toward the dead
// shard.
func (s *sim) settle() {
	if s.down >= 0 {
		s.reboot()
	}
	s.net.healAll()
	for i, script := range s.scripts {
		script.SetBudget(-1)
		s.full[i] = false
	}
	for n := 0; ; n++ {
		s.repoint()
		why := s.unsettled()
		if why == "" {
			s.wasFull = false
			return
		}
		if n == simSettle {
			s.fail("the cluster did not settle in %d ticks: %s", simSettle, why)
		}
		s.tick()
	}
}

// unsettled says what keeps the live cluster from having settled.
func (s *sim) unsettled() string {
	serving := map[string][]int{}
	for i, sd := range s.tc.shards {
		if i == s.dead {
			continue
		}
		if s.dead >= 0 && !sd.srv.repl.det.Down(s.tc.url(s.dead)) {
			return fmt.Sprintf("shard %d has not declared the dead shard down", i)
		}
		if p := sd.srv.table.Parked(); len(p) > 0 {
			return fmt.Sprintf("shard %d has parked hand-offs %v", i, p)
		}
		for _, tp := range sd.srv.served() {
			serving[tp.name] = append(serving[tp.name], i)
			if !topicStates[tp.state.Load()].writable {
				return fmt.Sprintf("%s is degraded on shard %d", tp.name, i)
			}
			lags := tp.followers.AppendLag(nil, tp.name, tp.eng.Batches())
			for _, peer := range tp.followers.Peers() {
				if k := slices.IndexFunc(lags, func(l repl.Lag) bool { return l.Peer == peer }); peer != s.deadURL && (k < 0 || !lags[k].Synced || lags[k].Behind != 0) {
					return fmt.Sprintf("%s on shard %d: follower %s has not caught up", tp.name, i, peer)
				}
			}
		}
	}
	for _, tp := range s.topics {
		if at := serving[tp.name]; tp.created && len(at) != 1 {
			return fmt.Sprintf("%s is served by shards %v", tp.name, at)
		}
		for entry := range simShards {
			if to := s.routesTo(tp.name, entry); tp.created && entry != s.dead && to != serving[tp.name][0] && !s.stranded(tp.name, to) {
				return fmt.Sprintf("%s lives on shard %d, but shard %d routes it to %d", tp.name, serving[tp.name][0], entry, to)
			}
		}
	}
	return ""
}

// routesTo follows name's routes from shard entry in process and returns
// the shard the chain ends at: one that answers for the name, holds it
// parked, or is dead (-1: none within simShards hops).
func (s *sim) routesTo(name string, entry int) int {
	for range simShards {
		if _, rt := s.tc.shards[entry].srv.route(name); entry == s.dead || rt.Here || rt.Parked {
			return entry
		} else {
			entry = slices.Index(s.tc.peers, rt.Owner)
		}
	}
	return -1
}

// stranded reports a settled route of name that ends at shard to, short of
// the shard serving it, for one of two known defects (CHANGES.md, FOUND),
// both only once a shard is dead for good: a tombstone naming the dead
// shard, which nothing re-points, and a topic held off its ring owner while
// that owner is dead, which the live shards route to the owner's first live
// candidate instead.
func (s *sim) stranded(name string, to int) bool {
	return to >= 0 && s.dead >= 0 && (to == s.dead || s.tc.ownerIdx(name) == s.dead && servedTopic(s.tc.shards[to].srv, name) == nil)
}

// repoint is the operator re-pointing each hand-off parked toward the dead
// shard at the third one.
func (s *sim) repoint() {
	for i, sd := range s.tc.shards {
		for _, name := range sd.srv.table.Parked() {
			if ts, _ := sd.srv.table.Tombstone(name); i != s.dead && ts.Target == s.deadURL {
				to := 3 - i - s.dead
				done := s.event("operator re-points %s from dead shard %d to %d", name, s.dead, to)
				done(s.do("POST", i, "/v1/cluster/move", moveRequest{Topic: name, Target: s.tc.url(to)}).String())
			}
		}
	}
}

// quiesce ends a run: the cluster settles, every live shard reports the
// replication it runs, and every created topic answers from every entry
// shard with the control's bytes.
func (s *sim) quiesce() {
	s.settle()
	for i := range simShards {
		var hr healthResponse
		if i == s.dead {
			continue
		}
		a := call(nil, s.tc.client, "GET", s.tc.url(i)+"/v1/healthz", nil, &hr)
		if r := hr.Replication; a.err != nil || a.code != http.StatusOK || r == nil || r.Factor != s.tc.opts.repl.Factor ||
			s.dead >= 0 && !slices.Equal(r.DownPeers, []string{s.deadURL}) || hr.Quarantined != 0 {
			s.fail("at quiescence shard %d answers healthz %d %v: replication %+v, %d quarantined files", i, a.code, a.err, r, hr.Quarantined)
		}
	}
	for _, tp := range s.topics {
		for entry := range simShards {
			if !tp.created || entry == s.dead || s.stranded(tp.name, s.routesTo(tp.name, entry)) {
				continue
			}
			a := s.do("GET", entry, "/v1/topics/"+tp.name+"/snapshot", nil)
			if a.code != http.StatusOK {
				s.fail("at quiescence %s answers %s through shard %d", tp.name, a, entry)
			}
			if got, at0 := s.restore(a.body); !bytes.Equal(at0, tp.hist[len(tp.hist)-1].snap) {
				b, d := got.StreamPos()
				s.fail("at quiescence %s through shard %d (%d batches, %d draws, epoch %d) differs from the control (%d acked batches)",
					tp.name, entry, b, d, got.Epoch(), len(tp.hist)-1)
			}
		}
	}
}

// checkWriters fails the run if two live shards admit writes for one
// (topic, epoch).
func (s *sim) checkWriters() {
	writers := map[string]int{}
	for i, sd := range s.tc.shards {
		for _, tp := range sd.srv.served() {
			key := fmt.Sprintf("%s@%d", tp.name, tp.eng.Epoch())
			if other, ok := writers[key]; ok && sd.srv.ctx.Err() == nil && topicStates[tp.state.Load()].writable {
				s.fail("shards %d and %d both admit writes for %s", other, i, key)
			} else if sd.srv.ctx.Err() == nil && topicStates[tp.state.Load()].writable {
				writers[key] = i
			}
		}
	}
}

// ——— the client ———

// do sends one JSON request at shard entry and follows its redirects,
// failing the run if the chain does not end within simShards hops.
func (s *sim) do(method string, entry int, path string, body any) reply {
	a := call(nil, hops{s.tc.noRedirect, simShards}, method, s.tc.url(entry)+path, body, nil)
	if a.err != nil {
		s.fail("%s %s at shard %d: %v", method, path, entry, a.err)
	}
	s.judge(a)
	return a
}

// judge holds an answer to the storage property: a storage error code
// answers only while some disk has been full since the last settle.
func (s *sim) judge(a reply) {
	switch a.ec {
	case codeStorage, codeStorageDegraded, codeStorageReadonly:
		if !s.wasFull {
			s.fail("answered %s, and no disk has been full since the last settle", a)
		}
	}
}

// ——— the fault network ———

// simNet is the fault network every shard's peer client rides, one simLink
// per shard, over the harness's in-process network. drop, lose, shipLost,
// blind (every placement query fails) and mute (every hand-off PUT lands,
// but its answer is lost) name the shard each is armed for, plus one (0:
// unarmed, simShards+1: any), and hold the pair from*simShards+to, plus
// one: the probe loops of one shard wake in no fixed order among
// themselves, so a fault they could race for names its target. carry keeps them armed for
// the next event.
// cut is the partitioned pair (from*simShards+to, plus one), cut for
// cutLeft more ticks; a new cut waits until the last has been healed for a
// tick, so no probe fails ProbeFailures times in a row. Only the sim's
// goroutine writes carry, cutLeft and healed.
type simNet struct {
	tc    *testCluster
	every time.Duration

	drop, lose, shipLost, blind, mute, hold, cut atomic.Int32
	carry                                        bool
	cutLeft, healed                              int
}

func (n *simNet) arm(fault *atomic.Int32, i int, carry bool) {
	fault.Store(int32(i + 1))
	n.carry = carry
}

func (n *simNet) disarm() {
	for _, f := range []*atomic.Int32{&n.drop, &n.lose, &n.shipLost, &n.blind, &n.mute, &n.hold} {
		if !n.carry {
			f.Store(0)
		}
	}
	n.carry = false
}

// cutPair cuts i from j for ticks ticks, unless a cut may not start yet.
func (n *simNet) cutPair(i, j, ticks int) bool {
	if n.cutLeft > 0 || n.healed == 0 {
		return false
	}
	n.cut.Store(int32(i*simShards + j + 1))
	n.cutLeft = ticks
	return true
}

// age counts a tick against the cut, healing it on time.
func (n *simNet) age() string {
	switch n.cutLeft {
	case 0:
		n.healed++
		return "ticked"
	case 1:
		n.healAll()
		return "cut healed"
	}
	n.cutLeft--
	return "ticked, cut"
}

// healAll heals the cut; with carry unset, disarm then lifts every fault.
func (n *simNet) healAll() {
	if n.cutLeft > 0 {
		n.cut.Store(0)
		n.cutLeft, n.healed = 0, 0
	}
	n.carry = false
	n.disarm()
}

type simLink struct {
	net  *simNet
	from int
}

var errSimLost = errors.New("sim: the response was lost")

func (l *simLink) RoundTrip(req *http.Request) (*http.Response, error) {
	n := l.net
	to := slices.Index(n.tc.peers, "http://"+req.URL.Host)
	probe := req.URL.Path == "/v1/healthz"
	take := func(fault *atomic.Int32, cond bool) bool {
		return cond && (fault.CompareAndSwap(int32(l.from+1), 0) || fault.CompareAndSwap(simShards+1, 0))
	}
	c := int(n.cut.Load()) - 1
	cut := c == l.from*simShards+to || c == to*simShards+l.from
	blind := n.blind.Load() == int32(l.from+1) && req.URL.Path == "/v1/cluster/info"
	switch {
	case cut || blind || take(&n.drop, !probe):
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("sim: %s %s from shard %d dropped (cut %v, blind %v)", req.Method, req.URL.Path, l.from, cut, blind)
	case probe && n.hold.CompareAndSwap(int32(l.from*simShards+to+1), 0) &&
		!n.tc.clock.SleepAs(req.Context(), n.every, fmt.Sprint(l.from, " held probe")):
		return nil, req.Context().Err()
	}
	handoff := req.Header.Get(handoffHeader) != ""
	lose := take(&n.lose, handoff) || handoff && n.mute.Load() == int32(l.from+1) || take(&n.shipLost, strings.HasPrefix(req.URL.Path, "/v1/replica/"))
	resp, err := n.tc.RoundTrip(req)
	if err == nil && lose {
		resp.Body.Close()
		return nil, errSimLost
	}
	return resp, err
}
