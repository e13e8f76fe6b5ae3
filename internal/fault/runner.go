package fault

import (
	"fmt"
	"time"
)

// Scenario is one named, self-checking fault scenario of any family: a
// crash-recovery cut here, a network, replication or failover fault in
// package chaos.
type Scenario struct {
	Name  string
	Short bool // member of the quick subset (tcochaos -short)
	Run   func() Outcome
}

// Outcome is what a scenario found: its verdict and every invariant
// violation, without the scenario's name.
type Outcome struct {
	Verdict    string
	Violations []string
}

// Bad records one violation.
func (o *Outcome) Bad(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}

// VerdictError is the verdict of a scenario the guard stopped, and the
// verdict chaos scenarios give a clean typed error.
const VerdictError = "error"

// DefaultWatchdog bounds one scenario's wall time when the caller sets none.
const DefaultWatchdog = 30 * time.Second

// Drive runs scs in order, each under the watchdog with panic recovery,
// logs one line per scenario, and returns the outcomes in order. A
// scenario that panics or outlives the watchdog becomes one violation and
// the run goes on; a hung scenario's goroutine is abandoned.
func Drive(scs []Scenario, watchdog time.Duration, logf func(format string, args ...any)) []Outcome {
	if watchdog <= 0 {
		watchdog = DefaultWatchdog
	}
	outs := make([]Outcome, len(scs))
	for i, sc := range scs {
		out := runGuarded(sc, watchdog)
		if len(out.Violations) > 0 {
			logf("%s: %s, %d violation(s): %s", sc.Name, out.Verdict, len(out.Violations), out.Violations[0])
		} else {
			logf("%s: %s", sc.Name, out.Verdict)
		}
		outs[i] = out
	}
	return outs
}

// runGuarded runs one scenario under the watchdog with panic recovery.
func runGuarded(sc Scenario, watchdog time.Duration) Outcome {
	done := make(chan Outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				o := Outcome{Verdict: VerdictError}
				o.Bad("panic: %v", r)
				done <- o
			}
		}()
		done <- sc.Run()
	}()
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	select {
	case o := <-done:
		return o
	case <-timer.C:
		o := Outcome{Verdict: VerdictError}
		o.Bad("hang: scenario exceeded the %v watchdog", watchdog)
		return o
	}
}
