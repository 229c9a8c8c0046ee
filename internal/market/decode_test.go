package market

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bombdroid/internal/obs"
	"bombdroid/internal/report"
)

// readReportsJSON is ReadReports decoding with encoding/json alone,
// the differential oracle: the same reader stack (including the
// inflated-size cap) and the same per-event checks, one json.Decoder
// for the whole body.
func readReportsJSON(w http.ResponseWriter, r *http.Request, maxEvents int) ([]report.Event, bool) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			http.Error(w, "bad gzip body", http.StatusBadRequest)
			return nil, false
		}
		defer zr.Close()
		body = http.MaxBytesReader(w, zr, maxRequestBytes)
	}
	dec := json.NewDecoder(body)
	var evs []report.Event
	var prevOff int64
	for {
		var ev report.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			code := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, fmt.Sprintf("bad event at index %d: %v", len(evs), err), code)
			return nil, false
		}
		off := dec.InputOffset()
		if off-prevOff > MaxEventBytes {
			http.Error(w, fmt.Sprintf("event at index %d exceeds %d bytes", len(evs), MaxEventBytes),
				http.StatusRequestEntityTooLarge)
			return nil, false
		}
		prevOff = off
		if ev.App == "" || ev.Bomb == "" || ev.User == "" {
			http.Error(w, fmt.Sprintf("event at index %d missing app/bomb/user", len(evs)), http.StatusBadRequest)
			return nil, false
		}
		evs = append(evs, ev)
		if len(evs) > maxEvents {
			http.Error(w, fmt.Sprintf("batch exceeds %d events, split it", maxEvents), http.StatusRequestEntityTooLarge)
			return nil, false
		}
	}
	return evs, true
}

// chunkReader hands out at most n bytes per Read, so events straddle
// the decoder's read boundaries.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

type decodeResult struct {
	evs  []report.Event
	ok   bool
	code int
	body string
}

func runDecode(body []byte, gz bool, maxEvents, chunk int,
	read func(http.ResponseWriter, *http.Request, int) ([]report.Event, bool)) decodeResult {
	var r io.Reader = bytes.NewReader(body)
	if chunk > 0 {
		r = chunkReader{r, chunk}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/reports", r)
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	evs, ok := read(rec, req, maxEvents)
	return decodeResult{evs, ok, rec.Code, rec.Body.String()}
}

// checkDecode posts body through ReadReports and the oracle and
// requires the same events, ok, status code and response body. It
// returns whether ReadReports left the canonical path.
func checkDecode(t *testing.T, body []byte, gz bool, maxEvents, chunk int) bool {
	t.Helper()
	var fallbacks obs.Counter
	got := runDecode(body, gz, maxEvents, chunk, func(w http.ResponseWriter, r *http.Request, n int) ([]report.Event, bool) {
		return ReadReports(w, r, n, &fallbacks)
	})
	want := runDecode(body, gz, maxEvents, chunk, readReportsJSON)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadReports(gz %v, max %d, chunk %d, %d-byte body %.200q)\n got ok %v code %d body %q, %d events\nwant ok %v code %d body %q, %d events",
			gz, maxEvents, chunk, len(body), body, got.ok, got.code, got.body, len(got.evs),
			want.ok, want.code, want.body, len(want.evs))
	}
	return fallbacks.Value() > 0
}

func gzipBytes(t testing.TB, b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func canonicalBody(evs ...report.Event) []byte {
	var b []byte
	for _, ev := range evs {
		b = append(ev.AppendJSON(b), '\n')
	}
	return b
}

// TestReadReportsMatchesJSON runs bodies larger than the pooled read
// buffer through both decoders at several read sizes: events crossing
// reads, an event that grows the buffer, a hand-off to encoding/json
// deep into a body, and the per-event and per-batch bounds.
func TestReadReportsMatchesJSON(t *testing.T) {
	var many []report.Event
	for i := 0; i < 300; i++ {
		many = append(many, ev(fmt.Sprintf("app.%d", i%7), fmt.Sprintf("b%d", i%11), fmt.Sprintf("u%d", i)))
	}
	long := ev("app.long", "b1", "u1")
	long.Info = strings.Repeat("y", 3*readBufSize)
	huge := ev("app.huge", "b1", "u1")
	huge.Info = strings.Repeat("z", MaxEventBytes)
	escaped := `{"app":"app.esc","bomb":"b1","user":"u1","time_ms":5,"info":"\u00e9"}` + "\n"

	cases := []struct {
		name     string
		body     []byte
		fallback bool
	}{
		{"many", canonicalBody(many...), false},
		{"long event", canonicalBody(append(many[:5:5], long, many[5])...), false},
		{"escape after many", append(canonicalBody(many...), escaped...), true},
		{"escape in the middle", append(append(canonicalBody(many[:200]...), escaped...), canonicalBody(many[200:]...)...), true},
		{"event past MaxEventBytes", canonicalBody(many[0], huge, many[1]), true},
		{"whitespace runs", []byte(strings.Repeat(" \n", 3*readBufSize) + string(canonicalBody(many[:3]...)) + strings.Repeat("\t", 5000)), false},
		{"whitespace past MaxEventBytes", []byte(strings.Repeat("\n", MaxEventBytes) + string(canonicalBody(many[0]))), false},
		{"truncated", canonicalBody(many...)[:4000], true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, gz := range []bool{false, true} {
				body := c.body
				if gz {
					body = gzipBytes(t, body)
				}
				for _, maxEvents := range []int{maxRequestEvents, 250} {
					for _, chunk := range []int{0, 1, 13, 4096} {
						if chunk == 1 && len(body) > 64<<10 {
							continue
						}
						fell := checkDecode(t, body, gz, maxEvents, chunk)
						if maxEvents == maxRequestEvents && fell != c.fallback {
							t.Errorf("gz %v chunk %d: fell back %v, want %v", gz, chunk, fell, c.fallback)
						}
					}
				}
			}
		})
	}
}

// FuzzReadReports is a differential fuzz of ReadReports against the
// encoding/json-only oracle over plain and gzip bodies (optionally cut
// short), small batch caps and small read sizes.
func FuzzReadReports(f *testing.F) {
	seeds := []string{
		"", "\n", "{not json", `{"app":"a","bomb":"b"}`,
		string(canonicalBody(ev("app.h", "b1", "u1"), ev("app.h", "b1", "u2"), ev("app.h", "b1", "u1"))),
		string(canonicalBody(ev("app.413", "b0", "u1"), ev("app.413", "b1", "u1"), ev("app.413", "b2", "u1"))),
		`{"app":"a","bomb":"b","user":"u","info":"<x>"}{"app":"a","bomb":"b","user":"v"}`,
		`{"app":"a","bomb":"b","user":"ué","time_ms":-3}` + "\n",
		` {"APP":"a","bomb":"b","user":"u"} `,
		`{"app":"a","bomb":"b","user":"u","extra":[1,{"x":null}]}`,
		`{"app":"a","bomb":"b","user":"u","time_ms":1.5}`,
		`{"app":"a","bomb":"b","user":"u","time_ms":99999999999999999999}`,
		`{"app":"a","bomb":"b","user":"u","app":"c"}`,
		`{"app":"a","bomb":"b","user":"u"} x`,
		`null [] "s"`,
	}
	for i, s := range seeds {
		f.Add([]byte(s), i%2 == 0, uint8(i), uint8(i*7), uint16(0))
	}
	f.Add([]byte(seeds[4]), true, uint8(2), uint8(3), uint16(9))
	f.Fuzz(func(t *testing.T, raw []byte, gz bool, maxEvents, chunk uint8, cut uint16) {
		body := raw
		if gz {
			body = gzipBytes(t, raw)
			if cut > 0 {
				body = body[:len(body)-int(cut)%len(body)]
			}
		}
		checkDecode(t, body, gz, 1+int(maxEvents)%8, int(chunk)%64)
	})
}

// TestHTTPGzipInflationCap: the request-size cap applies to the
// inflated stream too, so a small gzip body that inflates past it is
// refused with 413 rather than decoded without bound.
func TestHTTPGzipInflationCap(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	line := bytes.Repeat([]byte("\n"), 1<<20)
	for n := 0; n <= maxRequestBytes; n += len(line) {
		zw.Write(line)
	}
	zw.Close()
	if body.Len() >= maxRequestBytes/100 {
		t.Fatalf("compressed body is %d bytes; the test needs a small one", body.Len())
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/reports", &body)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "request body too large") {
		t.Errorf("inflating gzip body: status %d %q, want 413 request body too large", resp.StatusCode, msg)
	}
}

// TestDecodeFallbackCounter: the bodies market.Client and
// report.HTTPSink write take the canonical path, so the fallback
// counter stays at 0; an escaped string sends a body to encoding/json
// and counts.
func TestDecodeFallbackCounter(t *testing.T) {
	srv, st := newTestServer(t, Config{})
	fallbacks := func() int64 {
		return st.Obs().Counter("market_ingest_decode_fallback_total").Value()
	}
	evs := []report.Event{ev("app.fb", "b1", "u1"), ev("app.fb", "b2", "u1")}
	evs[1].Info = "pk=3f:a9 sha256/é"
	for _, gz := range []bool{false, true} {
		cl := &Client{BaseURL: srv.URL, Gzip: gz}
		if _, err := cl.Reports().Post(context.Background(), evs); err != nil {
			t.Fatal(err)
		}
	}
	sink := &report.HTTPSink{URL: srv.URL + "/v1/reports"}
	if err := sink.Deliver(ev("app.fb", "b3", "u1"), 0); err != nil {
		t.Fatal(err)
	}
	if n := fallbacks(); n != 0 {
		t.Fatalf("fallbacks after Client and HTTPSink posts = %d, want 0", n)
	}
	if n := st.Obs().Snapshot().Histograms["market_ingest_decode_us"].Count; n != 3 {
		t.Errorf("market_ingest_decode_us observed %d decodes, want 3", n)
	}

	escaped := `{"app":"app.fb","bomb":"b4","user":"u\u0031"}` + "\n"
	if code := postStatus(t, srv.URL, strings.NewReader(escaped)); code != http.StatusOK {
		t.Fatalf("escaped event status = %d, want 200", code)
	}
	if n := fallbacks(); n != 1 {
		t.Errorf("fallbacks after an escaped event = %d, want 1", n)
	}
	if v := st.Verdict("app.fb"); v.Channels.Reports.Detections != 4 {
		t.Errorf("detections = %d, want 4", v.Channels.Reports.Detections)
	}
}
