package report

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"bombdroid/internal/obs"
)

// ErrBackpressure is returned by HTTPSink.Deliver when the market
// daemon sheds load (HTTP 429). It wraps ErrSinkDown, so existing
// retry/breaker logic treats it as any other delivery failure while
// callers that care can errors.Is for it specifically.
var ErrBackpressure = fmt.Errorf("market backpressure: %w", ErrSinkDown)

// HTTPSink delivers events to a market ingestion endpoint (see
// internal/market and cmd/marketd): one POST per Deliver carrying a
// single JSON-lines record. It closes the paper's decentralized loop
// over a real network hop — device pipeline → HTTP → market WAL —
// with the pipeline's retry, backoff, and breaker machinery handling
// the hop's failures.
//
// Deliver is synchronous and does not batch: the pipeline's contract
// is that a nil return means the sink accepted the event, and the
// market side only acks after its WAL commit. Bulk traffic that wants
// batched POSTs should use market.Client directly.
//
// HTTPSink also implements TracedSink: with a live trace the POST
// carries obs.TraceHeader, the wall-clock round-trip lands on the ctx
// as network time, and the market's obs.ServerTimingHeader response
// header (receive → post-WAL-flush ack, microseconds) is stamped back
// so the breakdown can separate the wire from the daemon's flush.
type HTTPSink struct {
	// URL is the full ingestion endpoint, e.g.
	// "http://127.0.0.1:8444/v1/reports".
	URL string
	// Client overrides http.DefaultClient (tests inject timeouts).
	Client *http.Client
}

// Deliver POSTs the event and maps the response onto the pipeline's
// failure model: 2xx is success, 429 is ErrBackpressure, anything
// else (including transport errors) wraps ErrSinkDown.
func (s *HTTPSink) Deliver(ev Event, _ int64) error {
	return s.post(ev, nil)
}

// DeliverTraced is Deliver with trace propagation: the trace ID rides
// the request header and the ctx collects wall-clock network and
// server-side stamps. Virtual time is not involved — wall stamps feed
// only Volatile metrics.
func (s *HTTPSink) DeliverTraced(ev Event, tc *obs.TraceCtx, _ int64) error {
	return s.post(ev, tc)
}

func (s *HTTPSink) post(ev Event, tc *obs.TraceCtx) error {
	client := s.Client
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequest(http.MethodPost, s.URL, bytes.NewReader(append(ev.AppendJSON(nil), '\n')))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSinkDown, err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	var start time.Time
	if tc != nil {
		req.Header.Set(obs.TraceHeader, tc.ID.String())
		start = time.Now()
	}
	resp, err := client.Do(req)
	if tc != nil {
		tc.StampNetworkNs(time.Since(start).Nanoseconds())
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSinkDown, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if tc != nil {
		if us, err := strconv.ParseInt(resp.Header.Get(obs.ServerTimingHeader), 10, 64); err == nil && us > 0 {
			tc.StampServerNs(us * 1_000)
		}
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return ErrBackpressure
	default:
		return fmt.Errorf("%w: market returned %s", ErrSinkDown, resp.Status)
	}
}

var (
	_ Sink       = (*HTTPSink)(nil)
	_ TracedSink = (*HTTPSink)(nil)
)

// IsBackpressure reports whether a delivery failure was the market
// shedding load, letting callers distinguish "slow down" from "down".
func IsBackpressure(err error) bool { return errors.Is(err, ErrBackpressure) }
