package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsSpansAndPoints(t *testing.T) {
	tr := NewTracer(16)
	id := tr.NextTraceID()
	if id == 0 {
		t.Fatal("trace id must be nonzero")
	}
	sp := tr.Start(id, "query.exec")
	time.Sleep(time.Millisecond)
	sp.End("rows=3")
	tr.Point(id, "pool.miss", "page=7")

	evs := tr.Events(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Name != "query.exec" || evs[0].Dur <= 0 || evs[0].Attrs != "rows=3" {
		t.Fatalf("span event = %+v", evs[0])
	}
	if evs[1].Name != "pool.miss" || evs[1].Dur != 0 {
		t.Fatalf("point event = %+v", evs[1])
	}
	if evs[0].Trace != id || evs[1].Trace != id {
		t.Fatal("events must carry the trace id")
	}
	out := tr.String()
	if !strings.Contains(out, "query.exec") || !strings.Contains(out, "pool.miss") {
		t.Fatalf("String() = %q", out)
	}
}

// TestTracerRingWrapAround fills the ring past capacity and checks that
// exactly the newest `capacity` events survive, in order.
func TestTracerRingWrapAround(t *testing.T) {
	const capEvents = 8
	tr := NewTracer(capEvents)
	const total = 20
	for i := 0; i < total; i++ {
		tr.Point(0, fmt.Sprintf("ev%d", i), "")
	}
	if got := tr.Recorded(); got != total {
		t.Fatalf("recorded = %d, want %d", got, total)
	}
	evs := tr.Events(0)
	if len(evs) != capEvents {
		t.Fatalf("surviving events = %d, want %d", len(evs), capEvents)
	}
	// The survivors must be ev12..ev19, oldest first.
	for i, ev := range evs {
		want := fmt.Sprintf("ev%d", total-capEvents+i)
		if ev.Name != want {
			t.Fatalf("event[%d] = %s, want %s", i, ev.Name, want)
		}
	}
	// Sequence numbers must be strictly increasing across the window.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not increasing: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	// Limit returns the newest k events.
	last3 := tr.Events(3)
	if len(last3) != 3 || last3[2].Name != "ev19" {
		t.Fatalf("Events(3) = %+v", last3)
	}
}

func TestTracerCapacityClamp(t *testing.T) {
	tr := NewTracer(0)
	tr.Point(0, "a", "")
	tr.Point(0, "b", "")
	evs := tr.Events(0)
	if len(evs) != 1 || evs[0].Name != "b" {
		t.Fatalf("clamped ring events = %+v", evs)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			trace := tr.NextTraceID()
			for i := 0; i < 500; i++ {
				sp := tr.Start(trace, "op")
				sp.End("")
				if i%50 == 0 {
					_ = tr.Events(0)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Recorded(); got != 8*500 {
		t.Fatalf("recorded = %d, want %d", got, 8*500)
	}
}

func TestSlowLogThresholdAndWrap(t *testing.T) {
	sl := NewSlowLog(3, 10*time.Millisecond)
	if sl.Slow(5 * time.Millisecond) {
		t.Fatal("below-threshold query must not be slow")
	}
	for i := 0; i < 5; i++ {
		if !sl.Slow(20 * time.Millisecond) {
			t.Fatal("query over the threshold must be slow")
		}
		sl.Record(fmt.Sprintf("q%d", i), 20*time.Millisecond, i, "scan", uint64(i+100))
	}
	entries := sl.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	if entries[0].Query != "q2" || entries[2].Query != "q4" {
		t.Fatalf("ring kept wrong window: %+v", entries)
	}
	if entries[2].Trace != 104 {
		t.Fatalf("entry trace = %d, want 104", entries[2].Trace)
	}
	if !strings.Contains(sl.String(), "trace: 104") {
		t.Fatalf("String() must surface trace ids: %q", sl.String())
	}
	if sl.Total() != 5 {
		t.Fatalf("total = %d, want 5", sl.Total())
	}
	sl.SetThreshold(0)
	if sl.Slow(time.Hour) {
		t.Fatal("zero threshold must disable logging")
	}
	if sl.Threshold() != 0 {
		t.Fatal("threshold read-back")
	}
	if !strings.Contains(sl.String(), "q4") {
		t.Fatalf("String() = %q", sl.String())
	}
}

func TestSlowLogTruncatesLongQueries(t *testing.T) {
	sl := NewSlowLog(2, time.Nanosecond)
	long := strings.Repeat("x", 2*maxSlowQueryText)
	sl.Record(long, time.Second, 0, "", 0)
	e := sl.Entries()[0]
	if len(e.Query) > maxSlowQueryText+len("…") {
		t.Fatalf("query not truncated: %d bytes", len(e.Query))
	}
}

func TestSetDebugVars(t *testing.T) {
	SetDebugVars(func() any { return map[string]any{"x": 1} })
	SetDebugVars(nil) // detach must not panic and later publishes must work
	SetDebugVars(func() any { return nil })
}
