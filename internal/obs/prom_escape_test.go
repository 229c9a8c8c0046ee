package obs

import (
	"strings"
	"testing"
)

func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"all\\three\"here\n", `all\\three\"here\n`},
		{"日本語 raw UTF-8", "日本語 raw UTF-8"}, // %q would \u-escape this
		{"tab\tstays", "tab\tstays"},       // only \ " \n are special
		{"", ""},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
		if back := UnescapeLabelValue(EscapeLabelValue(c.in)); back != c.in {
			t.Errorf("unescape(escape(%q)) = %q", c.in, back)
		}
	}
	// Scrape-side leniency: unknown escapes keep the char, trailing
	// lone backslash survives.
	if got := UnescapeLabelValue(`a\zb`); got != "azb" {
		t.Errorf(`UnescapeLabelValue(a\zb) = %q, want "azb"`, got)
	}
	if got := UnescapeLabelValue(`tail\`); got != `tail\` {
		t.Errorf(`UnescapeLabelValue(tail\) = %q`, got)
	}
}

// parseLabels pulls the label map out of one exposition series name,
// walking quoted values with escape awareness — a miniature of what a
// real scraper does, which is exactly what the round-trip must satisfy.
func parseLabels(t *testing.T, series string) map[string]string {
	t.Helper()
	i := strings.IndexByte(series, '{')
	j := strings.LastIndexByte(series, '}')
	if i < 0 || j < i {
		t.Fatalf("series %q has no label block", series)
	}
	body := series[i+1 : j]
	out := map[string]string{}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			t.Fatalf("malformed label body at %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		// Find the closing quote, skipping escaped characters.
		end := -1
		for k := 0; k < len(rest); k++ {
			if rest[k] == '\\' {
				k++
				continue
			}
			if rest[k] == '"' {
				end = k
				break
			}
		}
		if end < 0 {
			t.Fatalf("unterminated label value in %q", body)
		}
		out[key] = UnescapeLabelValue(rest[:end])
		body = rest[end+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return out
}

func TestPrometheusLabelRoundTrip(t *testing.T) {
	evil := []string{
		`C:\apps\mal"ware.apk`,
		"multi\nline\napp",
		`trailing\`,
		`"`,
		"清华 BombDroid β",
		"plain-app",
	}
	r := NewRegistry()
	for i, v := range evil {
		r.Counter(L("app_reports_total", "app", v)).Add(int64(i) + 1)
	}
	// A labeled histogram exercises the seriesName le-merge path too.
	r.Histogram(L("app_latency_ms", "app", evil[0]), []int64{10, 100}).Observe(7)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := sb.String()

	// Every line must stay one line: raw newlines in label values
	// would split a series across lines and corrupt the exposition.
	recovered := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series := line[:sp]
		if !strings.Contains(series, "{") {
			continue
		}
		labels := parseLabels(t, series)
		if app, ok := labels["app"]; ok {
			recovered[app] = true
		}
	}
	for _, v := range evil {
		if !recovered[v] {
			t.Errorf("label value %q did not round-trip through the exposition;\n%s", v, text)
		}
	}

	// The histogram's own label must coexist with the injected le label.
	if !strings.Contains(text, `app_latency_ms_bucket{app="C:\\apps\\mal\"ware.apk",le="10"}`) {
		t.Errorf("escaped histogram bucket series missing:\n%s", text)
	}
}
