package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// SlowEntry is one slow-query record.
type SlowEntry struct {
	When  time.Time
	Dur   time.Duration
	Query string // the query text (possibly truncated)
	Rows  int    // rows returned
	Plan  string // one-line access-path description, may be empty
	Trace uint64 // trace id, 0 when the query ran untraced
}

// SlowLog keeps the most recent slow queries — those whose execution time
// met or exceeded the threshold — in a bounded ring. A nil *SlowLog is a
// valid no-op; a zero threshold disables logging.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	ring      []SlowEntry
	next      uint64
	total     uint64
}

// maxSlowQueryText bounds stored query text so the log's memory stays fixed.
const maxSlowQueryText = 512

// NewSlowLog creates a slow log holding capacity entries with the given
// threshold. capacity < 1 is clamped to 1.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, capacity)}
}

// SetThreshold updates the slow threshold; 0 disables logging.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.threshold = d
	l.mu.Unlock()
}

// Threshold returns the current threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.threshold
}

// Slow reports whether a query that ran for dur meets the threshold (never
// on a nil log or a zero threshold). A caller records a slow query with
// Record, so it renders the text only for a record.
func (l *SlowLog) Slow(dur time.Duration) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.threshold > 0 && dur >= l.threshold
}

// Record stores the query unconditionally: after Slow, or for a
// per-session slow threshold tighter than the engine-wide one. trace
// correlates the entry with its span tree (0 = untraced).
func (l *SlowLog) Record(query string, dur time.Duration, rows int, plan string, trace uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(query) > maxSlowQueryText {
		query = query[:maxSlowQueryText] + "…"
	}
	l.ring[l.next%uint64(len(l.ring))] = SlowEntry{
		When: time.Now(), Dur: dur, Query: query, Rows: rows, Plan: plan, Trace: trace,
	}
	l.next++
	l.total++
}

// Entries returns the buffered slow queries oldest-first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := uint64(len(l.ring))
	count := l.next
	if count > n {
		count = n
	}
	out := make([]SlowEntry, 0, count)
	start := l.next - count
	for i := uint64(0); i < count; i++ {
		out = append(out, l.ring[(start+i)%n])
	}
	return out
}

// Total returns how many slow queries have been observed overall.
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// String renders the log for human consumption.
func (l *SlowLog) String() string {
	entries := l.Entries()
	if len(entries) == 0 {
		return "(no slow queries)\n"
	}
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "%s  %8s  rows=%-6d %s\n",
			e.When.Format("15:04:05.000"), e.Dur.Round(time.Microsecond), e.Rows, e.Query)
		if e.Plan != "" {
			fmt.Fprintf(&sb, "    plan: %s\n", e.Plan)
		}
		if e.Trace != 0 {
			fmt.Fprintf(&sb, "    trace: %d\n", e.Trace)
		}
	}
	return sb.String()
}
