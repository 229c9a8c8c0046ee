package report

import (
	"fmt"
	"math/rand"

	"bombdroid/internal/obs"
)

// This file is the pipeline's public configuration contract.
// NewPipeline, the only constructor, starts from DefaultConfig and
// applies functional options, validating the result, so a caller
// states only what it means to change.

// DefaultConfig returns the pipeline defaults — exactly the values a
// zero Config field resolves to. It is part of the public contract and
// pinned by TestDefaultConfigPinned.
func DefaultConfig() Config { return Config{}.withDefaults() }

// Validate rejects configurations no schedule can satisfy.
// NewPipeline calls it after applying its options; exported so
// flag-driven callers (cmd/marketd, cmd/loadgen) can fail fast with a
// message.
func (c Config) Validate() error {
	switch {
	case c.QueueCap < 0:
		return fmt.Errorf("report: QueueCap %d < 0", c.QueueCap)
	case c.MaxAttempts < 0:
		return fmt.Errorf("report: MaxAttempts %d < 0", c.MaxAttempts)
	case c.BaseBackoffMs < 0 || c.MaxBackoffMs < 0:
		return fmt.Errorf("report: negative backoff (base %d, max %d)", c.BaseBackoffMs, c.MaxBackoffMs)
	case c.MaxBackoffMs > 0 && c.BaseBackoffMs > c.MaxBackoffMs:
		return fmt.Errorf("report: BaseBackoffMs %d exceeds MaxBackoffMs %d", c.BaseBackoffMs, c.MaxBackoffMs)
	case c.JitterFrac < 0 || c.JitterFrac > 1:
		return fmt.Errorf("report: JitterFrac %v outside [0,1]", c.JitterFrac)
	case c.BreakerThreshold < 0 || c.BreakerCooldownMs < 0:
		return fmt.Errorf("report: negative breaker tuning (threshold %d, cooldown %d)", c.BreakerThreshold, c.BreakerCooldownMs)
	}
	return nil
}

// Option adjusts one pipeline setting on top of DefaultConfig.
type Option func(*Config)

// WithQueueCap bounds the ingestion queue.
func WithQueueCap(n int) Option { return func(c *Config) { c.QueueCap = n } }

// WithMaxAttempts bounds delivery attempts per event.
func WithMaxAttempts(n int) Option { return func(c *Config) { c.MaxAttempts = n } }

// WithBaseBackoffMs sets the first retry delay.
func WithBaseBackoffMs(ms int64) Option { return func(c *Config) { c.BaseBackoffMs = ms } }

// WithMaxBackoffMs sets the backoff ceiling.
func WithMaxBackoffMs(ms int64) Option { return func(c *Config) { c.MaxBackoffMs = ms } }

// WithJitterFrac sets the ± fraction of backoff randomized per retry.
func WithJitterFrac(f float64) Option { return func(c *Config) { c.JitterFrac = f } }

// WithBreakerThreshold sets how many consecutive failures trip the
// circuit breaker.
func WithBreakerThreshold(n int) Option { return func(c *Config) { c.BreakerThreshold = n } }

// WithBreakerCooldownMs sets how long the breaker stays open before a
// half-open probe.
func WithBreakerCooldownMs(ms int64) Option { return func(c *Config) { c.BreakerCooldownMs = ms } }

// WithSeed seeds the jitter RNG (schedules are deterministic per seed).
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithTracer attaches a report-lifecycle tracer: every accepted event
// gets a deterministic trace from Submit to delivery ack (or abort),
// annotated through retries and breaker transitions and propagated
// across TracedSink hops. Nil (the default) keeps tracing off.
func WithTracer(t *obs.Tracer) Option { return func(c *Config) { c.Tracer = t } }

// NewPipeline builds a pipeline in front of sink from DefaultConfig
// plus the given options; an option that zeroes a field restores its
// default. It panics on a configuration Validate rejects — an invalid
// option combination is a programmer error, and the pipeline has no
// error return to smuggle it through.
func NewPipeline(sink Sink, opts ...Option) *Pipeline {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	return &Pipeline{
		cfg:  cfg,
		sink: sink,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		seen: make(map[string]bool),

		reg:        reg,
		cSubmitted: reg.Counter("report_submitted_total"),
		cAccepted:  reg.Counter("report_accepted_total"),
		cDupes:     reg.Counter("report_duplicates_total"),
		cDelivered: reg.Counter("report_delivered_total"),
		cAttempts:  reg.Counter("report_attempts_total"),
		cRetries:   reg.Counter("report_retries_total"),
		cDead:      reg.Counter("report_dead_letter_total"),
		cOverflow:  reg.Counter("report_overflow_total"),
		cTrips:     reg.Counter("report_breaker_trips_total"),
		cBackoffMs: reg.Counter("report_backoff_ms_total"),
		gQueue:     reg.Gauge("report_queue_depth"),
		gDeadDepth: reg.Gauge("report_dead_letter_depth"),
		gBreaker:   reg.Gauge("report_breaker_state"),
	}
}
