package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// codecStrings are field values that exercise every escaping rule of
// encoding/json's string encoder.
var codecStrings = []string{
	"", "plain", "com.example.app", "<script>&amp;</script>", `quote " and \ backslash`,
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "café 世界 \U0001f600",
	"line\u2028para\u2029", "bad \xff utf8 \xc3", "\xed\xa0\x80 surrogate", "\ufffd literal",
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	for i, s := range codecStrings {
		for _, ms := range []int64{0, -1, 1 << 62, -1 << 63, 1_700_000_000_000} {
			ev := Event{App: s, Bomb: codecStrings[(i+1)%len(codecStrings)], User: "u" + s, TimeMs: ms, Info: s + s}
			want, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			if got := ev.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Errorf("AppendJSON(%+q)\n got %s\nwant %s", ev, got, want)
			}
		}
	}
}

func TestParseCanonical(t *testing.T) {
	full := Event{App: "a.pp", Bomb: "B1", User: "ué", TimeMs: -42, Info: "i <&> x"}
	ok := []struct {
		in   string
		want Event
	}{
		{`{"app":"a.pp","bomb":"B1","user":"u` + "é" + `","time_ms":-42,"info":"i <&> x"}`, full},
		{" \t\r\n{ \"info\" : \"i <&> x\" ,\n\"time_ms\":-42, \"user\":\"ué\",\"bomb\":\"B1\",\"app\":\"a.pp\"}", full},
		{`{"app":"x"}`, Event{App: "x"}},
		{`{"time_ms":0}`, Event{}},
		{`{"time_ms":-0}`, Event{}},
		{`{"time_ms":999999999999999999}`, Event{TimeMs: 999999999999999999}},
		{`{}`, Event{}},
		{"{\"app\":\"\x7f \"}", Event{App: "\x7f "}},
	}
	for _, c := range ok {
		ev, n, _ := ParseCanonical([]byte(c.in + "trailing"))
		if n != len(c.in) || ev != c.want {
			t.Errorf("ParseCanonical(%q) = (%+v, %d), want (%+v, %d)", c.in, ev, n, c.want, len(c.in))
		}
	}
	bad := []string{
		`[]`, `null`, `"app"`, `{"app":null}`, `{"app":1}`, `{"time_ms":"1"}`,
		`{"App":"x"}`, `{"extra":"x"}`, `{"app":"x","app":"y"}`, `{"app":"x",}`, `{,}`,
		`{"app":"x\"y"}`, `{"app":"x\u0041"}`, `{"app":"x\n"}`, "{\"app\":\"x\ty\"}",
		"{\"app\":\"\xff\"}", "{\"app\":\"\xed\xa0\x80\"}",
		`{"time_ms":1.0}`, `{"time_ms":1e3}`, `{"time_ms":01}`, `{"time_ms":-}`,
		`{"time_ms":+1}`, `{"time_ms":1000000000000000000}`, `{"app" "x"}`, `{"app":"x" "bomb":"y"}`,
	}
	for _, in := range bad {
		if _, n, short := ParseCanonical([]byte(in)); n != 0 || short {
			t.Errorf("ParseCanonical(%q) = (n %d, short %v), want not canonical", in, n, short)
		}
	}
	// Every proper prefix of a canonical object is short.
	obj := ok[1].in
	for i := 0; i < len(obj); i++ {
		if _, n, short := ParseCanonical([]byte(obj[:i])); n != 0 || !short {
			t.Errorf("ParseCanonical(%q) = (n %d, short %v), want short", obj[:i], n, short)
		}
	}
}

// TestCodecAllocs pins the costs the ingest path is built on: encoding
// into a sized buffer allocates nothing, and a parse allocates one
// string for all four fields.
func TestCodecAllocs(t *testing.T) {
	ev := Event{App: "com.example.app", Bomb: "Bomb7", User: "u3.1234", TimeMs: 300000123, Info: "benchrun"}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = ev.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ParseCanonical(buf) }); n != 1 {
		t.Errorf("ParseCanonical allocs = %v, want 1", n)
	}
}

// FuzzEventJSON holds the codec to encoding/json: AppendJSON must
// write json.Marshal's bytes for any field values, everything
// ParseCanonical accepts must decode identically through
// json.Unmarshal and end where json.Decoder ends, a short verdict must
// be a JSON prefix, and DecodeJSON must round-trip AppendJSON.
func FuzzEventJSON(f *testing.F) {
	for i, s := range codecStrings {
		f.Add(s, codecStrings[(i+3)%len(codecStrings)], "u1", int64(i)*1e12-7, s, []byte(`{"app":"`+s+`","time_ms":12}`))
	}
	f.Add("a", "b", "c", int64(0), "", []byte(" {\"user\" :\"x\",\n \"bomb\":\"y\" }\n{"))
	f.Add("a", "b", "c", int64(0), "", []byte(`{"time_ms":123456789012345678}`))
	f.Add("a", "b", "c", int64(0), "", []byte(`{"app":"xA","info":""}`))
	f.Fuzz(func(t *testing.T, app, bomb, user string, ms int64, info string, raw []byte) {
		ev := Event{App: app, Bomb: bomb, User: user, TimeMs: ms, Info: info}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		enc := ev.AppendJSON(nil)
		if !bytes.Equal(enc, want) {
			t.Fatalf("AppendJSON\n got %s\nwant %s", enc, want)
		}
		var ref Event
		if err := json.Unmarshal(enc, &ref); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeJSON(enc)
		if err != nil || got != ref {
			t.Fatalf("DecodeJSON(%s) = (%+v, %v), want %+v", enc, got, err, ref)
		}
		// Per field: invalid fields can concatenate to valid UTF-8.
		valid := utf8.ValidString(app) && utf8.ValidString(bomb) && utf8.ValidString(user) && utf8.ValidString(info)
		if valid && got != ev {
			t.Fatalf("DecodeJSON(AppendJSON(%+v)) = %+v", ev, got)
		}

		for _, in := range [][]byte{raw, enc} {
			pev, n, short := ParseCanonical(in)
			dec := json.NewDecoder(bytes.NewReader(in))
			var dev Event
			derr := dec.Decode(&dev)
			switch {
			case n > 0:
				if derr != nil || pev != dev || dec.InputOffset() != int64(n) {
					t.Fatalf("ParseCanonical(%q) = (%+v, %d); json.Decoder = (%+v, %d, %v)",
						in, pev, n, dev, dec.InputOffset(), derr)
				}
				var uev Event
				if err := json.Unmarshal(in[:n], &uev); err != nil || uev != pev {
					t.Fatalf("ParseCanonical(%q) = %+v; json.Unmarshal = (%+v, %v)", in[:n], pev, uev, err)
				}
			case short:
				if !errors.Is(derr, io.EOF) && !errors.Is(derr, io.ErrUnexpectedEOF) {
					t.Fatalf("ParseCanonical(%q) short, but json.Decoder: %v", in, derr)
				}
			}
		}
		if strings.ContainsAny(app+bomb+user+info, "\\\"") || !valid {
			return
		}
		for _, r := range app + bomb + user + info {
			if r < 0x20 || r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029' {
				return
			}
		}
		if _, n, _ := ParseCanonical(enc); n != len(enc) {
			t.Fatalf("ParseCanonical rejected escape-free encoding %s", enc)
		}
	})
}
