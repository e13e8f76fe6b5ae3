package client

import (
	"errors"
	"sync"
	"time"

	"tcodm/internal/obs"
)

// ErrBreakerOpen fails a call fast: the circuit breaker has seen too many
// consecutive transport failures and its cooldown has not elapsed. The
// caller should back off (or surface the outage) instead of dialing a
// server that is demonstrably unreachable.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// Breaker states, exported through the client.breaker_state gauge.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// breaker is a circuit breaker over the leader's transport. It gates
// leader attempts only; a replica's failure is the replica's, and the
// call falls back to the leader through the gate. Server-reported errors
// never trip it — an Error frame proves the transport and the server both
// work — only dial failures, resets, and corrupt frames count. After
// threshold consecutive failures the circuit opens: leader attempts fail
// fast with ErrBreakerOpen until the cooldown elapses, then exactly one
// probe is allowed through (half-open). Every attempt allow admits
// records success or failure, so the probe's outcome always closes or
// re-opens the circuit.
type breaker struct {
	threshold int // <= 0 disables the breaker
	cooldown  time.Duration

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time

	stateG    *obs.Gauge   // client.breaker_state
	opens     *obs.Counter // client.breaker_open
	fastFails *obs.Counter // client.breaker_fastfail
}

func newBreaker(threshold int, cooldown time.Duration, reg *obs.Registry) *breaker {
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		stateG:    reg.Gauge("client.breaker_state"),
		opens:     reg.Counter("client.breaker_open"),
		fastFails: reg.Counter("client.breaker_fastfail"),
	}
}

// allow reports whether a leader attempt may proceed.
func (b *breaker) allow() error {
	if b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			b.fastFails.Inc()
			return ErrBreakerOpen
		}
		b.setState(breakerHalfOpen)
		return nil // this caller is the probe
	case breakerHalfOpen:
		b.fastFails.Inc() // one probe at a time
		return ErrBreakerOpen
	default:
		return nil
	}
}

// success records a working transport: the circuit closes.
func (b *breaker) success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state != breakerClosed {
		b.setState(breakerClosed)
	}
}

// failure records a transport failure, opening the circuit at the
// threshold and re-opening it when a half-open probe fails. Reports
// whether this failure opened (or re-opened) the circuit.
func (b *breaker) failure() bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.failures >= b.threshold) {
		b.openedAt = time.Now()
		if b.state != breakerOpen {
			b.opens.Inc()
		}
		b.setState(breakerOpen)
		return true
	}
	return false
}

// setState transitions with the gauge in lockstep; callers hold b.mu.
func (b *breaker) setState(s int) {
	b.state = s
	b.stateG.Set(int64(s))
}

// snapshot returns the current state for tests and debugging.
func (b *breaker) snapshot() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
