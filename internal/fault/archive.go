// Archive-migration torture: power cuts during the hot-to-cold tiering
// cut-over. A deep, fault-free history is built and fingerprinted, then the
// database is reopened with injection wired into all three files (device,
// WAL, archive) and Engine.Archive is cut at points spread across its whole
// I/O trace — with torn WAL tails and torn archive tails. After every cut
// the store is reopened twice (recovery must be idempotent), every answer
// on both sides of the watermark is compared byte-for-byte against the
// pre-archive fingerprint, and a fresh tiering run must still succeed.
package fault

import (
	"errors"
	"fmt"
	"strings"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/wal"
)

// RunArchive executes the archive-migration torture matrix for one
// strategy: a fault-free probe to count the tiering run's I/O operations
// and prove it migrates versions, then cut/tear/chop variants at every cut
// point plus transient sync and read errors, each in a fresh directory,
// each verified after recovery.
func RunArchive(cfg Config) (*Result, error) { return runFamily(archiveFamily, cfg) }

// archiveFamily builds a deep history fault-free and cuts the tiering run
// over it. Every fact is durably committed before any injection starts, so
// the pre-archive fingerprint is the oracle: no fault during the tiering
// run may change a single answer.
var archiveFamily = &family{
	label:  "archive ",
	prefix: "arc",
	work:   "versions migrated",
	variants: []variant{
		{name: "cut"},
		{name: "tear", script: Script{TearWrite: true, TearBytes: 512}},
		{name: "chop", chop: true},
	},
	syncErrAt: []int{1, 3},
	readErrAt: []int{2, 9},
	// Garbage past the archive's committed frontier, as a power cut mid
	// segment-append leaves it. Recovery must ignore it: the meta records
	// the committed size and every replayed frame overwrites its own
	// offset, so the tail is never read and eventually overwritten.
	chopSuffix: ".arc",
	chopLen:    301,
	chopFill:   0xC3,
	start: func(cfg Config, path string) (trial, error) {
		return buildArchiveDB(path, cfg.Strategy)
	},
}

// archiveTrial is one archive-family scenario: the built history, its
// watermark, and the fingerprint every recovery must reproduce.
type archiveTrial struct {
	ids       []value.ID
	wm, maxTT temporal.Instant
	want      string
	archived  int // versions the faulted tiering run migrated
}

func (a *archiveTrial) work() int { return a.archived }

// fault runs the migration until it completes or the fault kills it.
func (a *archiveTrial) fault(e *core.Engine, inj *Injector, bad func(string, ...any)) bool {
	ar, err := e.Archive(a.wm)
	if err != nil && !inj.Cut() && inj.transient() && !errors.Is(err, wal.ErrLogFailed) {
		// Transient fault: the migration rolled back whole; retry it. A
		// failed log sync is not transient: the log fails stop until reopen.
		ar, err = e.Archive(a.wm)
	}
	a.archived = ar.Archived
	if err != nil {
		_ = e.Crash()
		if !inj.Cut() && !errors.Is(err, wal.ErrLogFailed) {
			bad("archive failed without a power cut: %v", err)
		}
		return false
	}
	return true
}

// post proves the store still tiers: a fresh run over the full history has
// to succeed (it may find nothing left to move) and change no answer.
func (a *archiveTrial) post(e *core.Engine, bad func(string, ...any)) {
	if _, err := e.Archive(a.maxTT); err != nil {
		bad("post-recovery archive: %v", err)
	}
	a.verify(e, bad)
}

// buildArchiveDB commits the personnel schema, three employees, and 36
// updates whose valid-from points repeat in runs of three — monotone with
// repeats, so every strategy (including tuple, which archives only whole
// superseded snapshots) has transaction-closed versions below the
// watermark. The trial holds the ids, a watermark inside the history, the
// highest transaction time, and the pre-archive fingerprint.
func buildArchiveDB(path string, strategy atom.Strategy) (*archiveTrial, error) {
	a := &archiveTrial{}
	e, err := core.Open(core.Options{
		Path: path, Strategy: strategy, SyncOnCommit: true, PoolPages: poolPages,
	})
	if err != nil {
		return nil, err
	}
	if err := installSchema(e); err != nil {
		_ = e.Crash()
		return nil, err
	}
	tx, err := e.Begin()
	if err != nil {
		_ = e.Crash()
		return nil, err
	}
	for i := 0; i < 3; i++ {
		id, err := tx.Insert("Emp", map[string]value.V{
			"name":   value.String_(fmt.Sprintf("arc%d", i)),
			"salary": value.Int(int64(100 * i)),
		}, 0)
		if err != nil {
			_ = e.Crash()
			return nil, err
		}
		a.ids = append(a.ids, id)
	}
	if err := tx.Commit(); err != nil {
		_ = e.Crash()
		return nil, err
	}
	for i := 1; i <= 36; i++ {
		tx, err := e.Begin()
		if err != nil {
			_ = e.Crash()
			return nil, err
		}
		// Valid-from i-(i%3): runs of three updates correcting the same
		// instant. The small value domain gives compaction equal-valued
		// runs to coalesce.
		from := temporal.Instant(i - i%3)
		if err := tx.Set(a.ids[i%3], "salary", value.Int(int64(i%4)), from); err != nil {
			_ = e.Crash()
			return nil, err
		}
		if i%5 == 0 {
			if err := tx.Set(a.ids[i%3], "name", value.String_(fmt.Sprintf("n%d", i%3)), from); err != nil {
				_ = e.Crash()
				return nil, err
			}
		}
		a.maxTT = tx.TT()
		if i == 18 {
			a.wm = tx.TT() + 1
		}
		if err := tx.Commit(); err != nil {
			_ = e.Crash()
			return nil, err
		}
	}
	a.want, err = a.fingerprint(e)
	if err != nil {
		_ = e.Crash()
		return nil, err
	}
	if err := e.Close(); err != nil {
		return nil, err
	}
	return a, nil
}

// fingerprint renders point states and histories across a grid that
// spans both sides of the watermark — deep ASOF answers (which a migrated
// store serves from the cold file) and hot ones alike.
func (a *archiveTrial) fingerprint(e *core.Engine) (string, error) {
	var sb strings.Builder
	for _, id := range a.ids {
		for _, tt := range []temporal.Instant{a.wm - 1, a.wm, a.maxTT, atom.Now} {
			for _, vt := range []temporal.Instant{0, 3, 9, 17, 33, 100} {
				st, err := e.StateAt(id, vt, tt)
				if err != nil {
					return "", fmt.Errorf("StateAt(%v, %v, %v): %w", id, vt, tt, err)
				}
				fmt.Fprintf(&sb, "%v@%v,%v %v %v\n", id, vt, tt, st.Alive, st.Vals)
			}
			hist, err := e.History(id, "salary", tt)
			if err != nil {
				return "", fmt.Errorf("History(%v, %v): %w", id, tt, err)
			}
			fmt.Fprintf(&sb, "%v hist@%v %v\n", id, tt, hist)
		}
	}
	return sb.String(), nil
}

// verify holds a recovered engine to the pre-archive oracle and proves the
// query path works.
func (a *archiveTrial) verify(e *core.Engine, bad func(string, ...any)) {
	got, err := a.fingerprint(e)
	if err != nil {
		bad("fingerprint after recovery: %v", err)
		return
	}
	if got != a.want {
		bad("answers diverged after recovery: %s", firstLineDiff(a.want, got))
	}
	if _, err := e.Query("SELECT (Emp.name, Emp.salary) FROM Emp"); err != nil {
		bad("query after recovery: %v", err)
	}
}

// firstLineDiff returns the first differing line pair for a readable
// violation message.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line count %d vs %d", len(al), len(bl))
}
