package obs

// Hierarchical spans: named, nested phases of the pipeline
// (session → detonate, report, fuzz), timed on the virtual clock the
// caller passes.
//
// Ending a span does two things: the duration lands in a per-path
// deterministic histogram ("span_<path>_ms"),
// and the completed span is appended to the registry's bounded span
// log (always volatile — completion order is scheduling-dependent
// under parallel campaigns).

// SpanRecord is one completed span in the registry's span log.
type SpanRecord struct {
	Path    string `json:"path"` // "/"-joined span names, root first
	StartMs int64  `json:"start_ms"`
	DurMs   int64  `json:"dur_ms"`
}

// Span is one open phase. Spans are single-goroutine values, like the
// VMs and sessions they time.
type Span struct {
	reg     *Registry
	path    string
	startMs int64
}

// spanLogCap bounds the span log; older completions are dropped
// (it is a debugging window, not an accounting record).
const spanLogCap = 512

// StartSpan opens a root span at nowMs on the caller's clock. Safe on
// a nil registry (the span still times, but records nowhere).
func (r *Registry) StartSpan(name string, nowMs int64) *Span {
	return &Span{reg: r, path: name, startMs: nowMs}
}

// Child opens a nested span; its path is parent/name.
func (s *Span) Child(name string, nowMs int64) *Span {
	return &Span{reg: s.reg, path: s.path + "/" + name, startMs: nowMs}
}

// Path returns the span's "/"-joined path.
func (s *Span) Path() string { return s.path }

// End closes the span at nowMs, recording its duration in the
// per-path histogram and the span log.
func (s *Span) End(nowMs int64) {
	if s.reg == nil {
		return
	}
	dur := nowMs - s.startMs
	s.reg.Histogram("span_"+pathMetric(s.path)+"_ms", LatencyBucketsMs).Observe(dur)
	s.reg.recordSpan(SpanRecord{Path: s.path, StartMs: s.startMs, DurMs: dur})
}

// pathMetric flattens a span path into a metric-name-safe suffix.
func pathMetric(path string) string {
	b := []byte(path)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// recordSpan appends to the bounded span log.
func (r *Registry) recordSpan(rec SpanRecord) {
	if r == nil {
		return
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if len(r.spans) >= spanLogCap {
		copy(r.spans, r.spans[1:])
		r.spans[len(r.spans)-1] = rec
		return
	}
	r.spans = append(r.spans, rec)
}

// SpanLog returns a copy of the completed-span log, oldest first.
func (r *Registry) SpanLog() []SpanRecord {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}
