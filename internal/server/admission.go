package server

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"configvalidator/internal/telemetry"
)

// Limits tune the server's overload protection. The zero value of each
// field selects its default, so operators only set what they care about.
type Limits struct {
	// MaxInFlight is the number of validation requests allowed to execute
	// concurrently; 0 means 8. Validation admission is separate from the
	// cheap routes (targets, rules, lint, metrics), which are never gated.
	MaxInFlight int
	// MaxQueue is the number of validation requests allowed to wait for a
	// slot once MaxInFlight are executing; 0 means 2×MaxInFlight. Requests
	// beyond the queue are shed immediately with 429 and Retry-After.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot before
	// being shed; 0 means 1s.
	QueueWait time.Duration
	// ValidateTimeout bounds each validation request end to end; 0 means
	// 60s. Requests over it get 503 via http.TimeoutHandler.
	ValidateTimeout time.Duration
	// BreakerThreshold is the number of consecutive server-side validation
	// failures (500s, panics) that open the circuit breaker; 0 means 5.
	// Client errors (bad frames, unknown targets) never count.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// probe request through; 0 means 10s.
	BreakerCooldown time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxInFlight <= 0 {
		l.MaxInFlight = 8
	}
	if l.MaxQueue <= 0 {
		l.MaxQueue = 2 * l.MaxInFlight
	}
	if l.QueueWait <= 0 {
		l.QueueWait = time.Second
	}
	if l.ValidateTimeout <= 0 {
		l.ValidateTimeout = 60 * time.Second
	}
	if l.BreakerThreshold <= 0 {
		l.BreakerThreshold = 5
	}
	if l.BreakerCooldown <= 0 {
		l.BreakerCooldown = 10 * time.Second
	}
	return l
}

// retryAfter renders a duration as a Retry-After header value: whole
// seconds, rounded up, at least 1.
func retryAfter(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// limiter is the bounded-admission gate: MaxInFlight slots plus a bounded
// wait queue. Slot tokens double as the drain mechanism — BeginDrain
// acquires every slot, which completes exactly when the last in-flight
// validation releases its token.
type limiter struct {
	slots    chan struct{}
	queueCap int64
	queued   atomic.Int64
	wait     time.Duration
	metrics  *telemetry.Collector
}

func newLimiter(l Limits, m *telemetry.Collector) *limiter {
	return &limiter{
		slots:    make(chan struct{}, l.MaxInFlight),
		queueCap: int64(l.MaxQueue),
		wait:     l.QueueWait,
		metrics:  m,
	}
}

// acquire obtains an execution slot, waiting in the bounded queue when all
// slots are busy. It reports false — shed the request — when the queue is
// full, the queue wait expires, or the client goes away.
func (l *limiter) acquire(ctx context.Context) bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
	}
	if l.queued.Add(1) > l.queueCap {
		l.queued.Add(-1)
		return false
	}
	l.metrics.Add(telemetry.QueueDepth, 1)
	defer func() {
		l.queued.Add(-1)
		l.metrics.Add(telemetry.QueueDepth, -1)
	}()
	timer := time.NewTimer(l.wait)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		return true
	case <-timer.C:
		return false
	case <-ctx.Done():
		return false
	}
}

func (l *limiter) release() { <-l.slots }

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker around entity
// validation. Closed: requests flow, failures count. Open: requests are
// rejected until the cooldown elapses. Half-open: requests flow, the first
// failure re-opens, the first success closes and resets.
type breaker struct {
	mu        sync.Mutex
	state     int
	failures  int
	openedAt  time.Time
	threshold int
	cooldown  time.Duration
	metrics   *telemetry.Collector
	now       func() time.Time // test seam
}

func newBreaker(l Limits, m *telemetry.Collector) *breaker {
	return &breaker{
		threshold: l.BreakerThreshold,
		cooldown:  l.BreakerCooldown,
		metrics:   m,
		now:       time.Now,
	}
}

// allow reports whether a validation request may proceed, transitioning
// open → half-open once the cooldown has elapsed. A half-open breaker is
// not open: the gauge clears as the probe is let through, matching
// /readyz.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen {
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.metrics.Set(telemetry.BreakerOpen, 0)
	}
	return true
}

// success records a server-side validation success, closing the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		b.metrics.Set(telemetry.BreakerOpen, 0)
	}
	b.state = breakerClosed
	b.failures = 0
}

// failure records a server-side validation failure: a half-open breaker
// re-opens immediately, a closed one opens at the threshold.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.trip()
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.metrics.Add(telemetry.BreakerOpens, 1)
	b.metrics.Set(telemetry.BreakerOpen, 1)
}

// isOpen reports whether the breaker currently rejects requests, without
// transitioning state (for /readyz).
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen && b.now().Sub(b.openedAt) < b.cooldown
}
