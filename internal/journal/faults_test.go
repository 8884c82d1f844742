package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"triclust/internal/fault"
)

const (
	rotOldCRC = 0x0DDC0FFE
	rotNewCRC = 0xCAFED00D
)

// rotateWorkloadRecords appends two records against the old snapshot
// identity and returns the writer ready to Rotate.
func rotateWorkload(t *testing.T, fsys fault.FS, path string) *Writer {
	t.Helper()
	w, err := Create(fsys, path, rotOldCRC)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 1; i <= 2; i++ {
		if err := w.Append(&Record{Time: i, Batches: i, RandDraws: uint64(i) * 10}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	return w
}

// TestRotateInterruptedStates kills Rotate at each of its failpoints
// under every tail mode and asserts the surviving file is never
// misparsed: Load either refuses it (the quarantine path — header
// truncated or checksum-failing) or yields one of the two consistent
// states, the intact old journal or a validly empty new one. No mixture
// — never the new header with the old records, never phantom records.
func TestRotateInterruptedStates(t *testing.T) {
	for _, site := range []string{"journal.rotate.truncate", "journal.rotate.write", "journal.rotate.sync"} {
		for _, tm := range []fault.TailMode{fault.KeepTail, fault.DropTail, fault.TornTail} {
			t.Run(fmt.Sprintf("%s/tail=%d", site, tm), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "j")
				script := fault.NewScript(fault.Rule{Site: site, Hit: 1, Crash: true, Tail: tm})
				w := rotateWorkload(t, script, path)
				crashed := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := fault.AsCrash(r); !ok {
								panic(r)
							}
							crashed = true
						}
					}()
					_ = w.Rotate(rotNewCRC)
				}()
				if !crashed {
					t.Fatalf("rotate did not hit %s", site)
				}

				j, err := Load(fault.OS, path)
				if err != nil {
					// The quarantine path: callers rename the file aside and
					// serve the snapshot alone. Only the sentinel errors are
					// acceptable — an unexpected error class would bubble as
					// a load failure instead of a quarantine.
					if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
						t.Fatalf("interrupted rotate left a file Load fails on unquarantinably: %v", err)
					}
					return
				}
				switch {
				case j.SnapCRC == rotOldCRC:
					// The rotate never touched disk: the old journal must be
					// fully intact.
					if len(j.Records) != 2 || j.Torn {
						t.Fatalf("old-identity journal: %d records torn=%v, want the 2 intact ones", len(j.Records), j.Torn)
					}
				case j.SnapCRC == rotNewCRC:
					// The re-header landed: the journal is validly empty
					// against the new snapshot. Old records must be gone —
					// they belong to the old identity and replaying them on
					// the new snapshot would double-apply.
					if len(j.Records) != 0 {
						t.Fatalf("new-identity journal resurrected %d old records", len(j.Records))
					}
				default:
					t.Fatalf("interrupted rotate produced a journal naming snapshot %#x, which never existed", j.SnapCRC)
				}
			})
		}
	}
}

// TestWriterBrokenLatch: once a Rotate or TruncateTail fails, the file's
// real length no longer matches the writer's bookkeeping, so the writer
// must refuse every further append and rotate instead of extending the
// file at an unknowable offset.
func TestWriterBrokenLatch(t *testing.T) {
	boom := errors.New("injected")
	t.Run("rotate", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j")
		script := fault.NewScript(fault.Rule{Site: "journal.rotate.write", Hit: 1, Err: boom})
		w := rotateWorkload(t, script, path)
		defer w.Close()
		if err := w.Rotate(rotNewCRC); !errors.Is(err, boom) {
			t.Fatalf("rotate: %v, want the injected failure", err)
		}
		if err := w.Append(&Record{Time: 3, Batches: 3}); err == nil {
			t.Fatal("append after a failed rotate must be refused")
		}
		if err := w.Rotate(rotNewCRC); err == nil {
			t.Fatal("re-rotate on a broken writer must be refused")
		}
		// The way forward is Close + Create: the recreated journal is
		// coherent again.
		w.Close()
		w2, err := Create(fault.OS, path, rotNewCRC)
		if err != nil {
			t.Fatalf("re-create after broken rotate: %v", err)
		}
		defer w2.Close()
		if err := w2.Append(&Record{Time: 3, Batches: 1, RandDraws: 10}); err != nil {
			t.Fatalf("append after re-create: %v", err)
		}
		j, err := Load(fault.OS, path)
		if err != nil || j.SnapCRC != rotNewCRC || len(j.Records) != 1 {
			t.Fatalf("re-created journal: err=%v crc=%#x records=%d", err, j.SnapCRC, len(j.Records))
		}
	})
	t.Run("truncate", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j")
		script := fault.NewScript(fault.Rule{Site: "journal.truncate.truncate", Hit: 1, Err: boom})
		w := rotateWorkload(t, script, path)
		defer w.Close()
		if err := w.TruncateTail(); !errors.Is(err, boom) {
			t.Fatalf("truncate: %v, want the injected failure", err)
		}
		if err := w.Append(&Record{Time: 3, Batches: 3}); err == nil {
			t.Fatal("append after a failed truncate must be refused")
		}
		// Whatever state the failed truncate left, Load still resolves the
		// file to the intact record prefix — the append-only framing is
		// self-delimiting.
		j, err := Load(fault.OS, path)
		if err != nil {
			t.Fatalf("load after failed truncate: %v", err)
		}
		if j.SnapCRC != rotOldCRC || len(j.Records) != 2 {
			t.Fatalf("after failed truncate: crc=%#x records=%d, want old identity with 2 records", j.SnapCRC, len(j.Records))
		}
	})
}

// journalFaultSites are the Writer's failpoints the fault-injection
// fuzzer can kill — kept in one place so a new Writer site gets added
// here (the crash-point matrix in cmd/triclustd discovers its own sites
// and will not notice a missing entry in this list, but the fuzz corpus
// grows per entry).
var journalFaultSites = []string{
	"journal.create.open", "journal.create.write", "journal.create.sync",
	"journal.append.write", "journal.append.sync",
	"journal.rotate.truncate", "journal.rotate.write", "journal.rotate.sync",
	"journal.truncate.truncate", "journal.truncate.sync",
}

// FuzzJournalFaultInjection drives the full writer lifecycle — create,
// append, rotate, append — under a fuzzer-chosen fault (site, hit, error
// vs crash, tail mode, optional ENOSPC budget) and asserts the recovery
// contract on the surviving file: Load either refuses it with a
// quarantinable error, or yields a consistent journal — the records of
// exactly one snapshot identity, acked ≤ loaded ≤ attempted, in order.
func FuzzJournalFaultInjection(f *testing.F) {
	f.Add(uint8(3), uint8(1), false, uint8(1), int64(-1))
	f.Add(uint8(4), uint8(2), true, uint8(2), int64(-1))
	f.Add(uint8(6), uint8(1), true, uint8(0), int64(-1))
	f.Add(uint8(0), uint8(1), true, uint8(1), int64(-1))
	f.Add(uint8(3), uint8(2), false, uint8(0), int64(40))
	f.Fuzz(func(t *testing.T, siteIdx, hit uint8, crash bool, tailMode uint8, budget int64) {
		site := journalFaultSites[int(siteIdx)%len(journalFaultSites)]
		rule := fault.Rule{Site: site, Hit: int(hit%4) + 1, Tail: fault.TailMode(tailMode % 3)}
		if crash {
			rule.Crash = true
		} else {
			rule.Err = syscall.EIO
		}
		script := fault.NewScript(rule)
		if budget >= 0 {
			script.SetBudget(budget % 4096)
		}
		path := filepath.Join(t.TempDir(), "j")

		// ackedOld/ackedNew count durably acknowledged appends per journal
		// identity; attempted* count appends that were started.
		var ackedOld, attemptedOld, ackedNew, attemptedNew int
		rotated := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := fault.AsCrash(r); !ok {
						panic(r)
					}
				}
			}()
			w, err := Create(script, path, rotOldCRC)
			if err != nil {
				return
			}
			defer w.Close()
			for i := 1; i <= 3; i++ {
				// Mirror production: the batch counter advances only on a
				// durable append, so a failed-then-retried slot re-uses its
				// fingerprint (a refused batch never moves the position).
				attemptedOld = ackedOld + 1
				if err := w.Append(&Record{Time: i, Batches: ackedOld + 1, RandDraws: uint64(ackedOld+1) * 10}); err != nil {
					// A failed append leaves an ambiguous tail; production
					// truncates it. Stop on a broken writer.
					if w.TruncateTail() != nil {
						return
					}
					attemptedOld = ackedOld
					continue
				}
				ackedOld++
			}
			if err := w.Rotate(rotNewCRC); err != nil {
				return
			}
			rotated = true
			for i := 1; i <= 2; i++ {
				attemptedNew = ackedNew + 1
				if err := w.Append(&Record{Time: 100 + i, Batches: ackedNew + 1, RandDraws: uint64(ackedNew+1) * 7}); err != nil {
					if w.TruncateTail() != nil {
						return
					}
					attemptedNew = ackedNew
					continue
				}
				ackedNew++
			}
		}()

		j, err := Load(fault.OS, path)
		if err != nil {
			if os.IsNotExist(err) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) {
				return // quarantine (or never-created): recovery serves the snapshot alone
			}
			t.Fatalf("fault at %s left a file Load fails on unquarantinably: %v", site, err)
		}
		var acked, attempted int
		switch j.SnapCRC {
		case rotOldCRC:
			acked, attempted = ackedOld, attemptedOld
			if rotated && rule.Crash {
				// The crash froze the image before the rotate's effects were
				// observable as acks — the old identity surviving is fine,
				// but then all its acked records must be there.
				attempted = 3
			}
		case rotNewCRC:
			acked, attempted = ackedNew, attemptedNew
			if !rotated {
				// The rotate's re-header landed durably even though the
				// crash kept Rotate from returning: a validly empty journal.
				attempted = 0
				acked = 0
			}
		default:
			t.Fatalf("journal names snapshot %#x, which never existed", j.SnapCRC)
		}
		if len(j.Records) < acked || len(j.Records) > attempted {
			t.Fatalf("fault at %s: loaded %d records for identity %#x, want acked %d <= loaded <= attempted %d",
				site, len(j.Records), j.SnapCRC, acked, attempted)
		}
		for i, rec := range j.Records {
			if rec.Batches != i+1 {
				t.Fatalf("record %d carries batch fingerprint %d — out of order or phantom", i, rec.Batches)
			}
		}
	})
}
