package report

import (
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The Event wire codec without reflection. AppendJSON writes exactly
// what encoding/json writes; ParseCanonical reads the subset of JSON
// that AppendJSON produces (keys in any order and any whitespace, but
// no escapes) and leaves everything else to encoding/json, which stays
// the decoder of record for the full wire contract.

// AppendJSON appends the JSON encoding of e to dst and returns the
// extended slice. The bytes are identical to json.Marshal(e),
// including its HTML-safe escaping of <, > and &, its replacement of
// invalid UTF-8 with \ufffd, and its escaping of U+2028 and U+2029.
func (e Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"app":`...)
	dst = appendJSONString(dst, e.App)
	dst = append(dst, `,"bomb":`...)
	dst = appendJSONString(dst, e.Bomb)
	dst = append(dst, `,"user":`...)
	dst = appendJSONString(dst, e.User)
	dst = append(dst, `,"time_ms":`...)
	dst = strconv.AppendInt(dst, e.TimeMs, 10)
	dst = append(dst, `,"info":`...)
	dst = appendJSONString(dst, e.Info)
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString mirrors encoding/json's string encoder with HTML
// escaping on.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// maxCanonicalDigits bounds time_ms in the canonical form: 18 decimal
// digits always fit an int64, so the parser never has to detect
// overflow.
const maxCanonicalDigits = 18

// ParseCanonical's field numbers: bits of its duplicate-key mask, and
// for the four strings, indexes of their value spans.
const (
	fieldApp = iota
	fieldBomb
	fieldUser
	fieldInfo
	fieldTimeMs
)

// ParseCanonical decodes the canonical JSON form of an Event from the
// start of b: optional JSON whitespace, then an object whose only keys
// are the five Event keys, spelled exactly and each at most once, in
// any order; string values with no backslash, no control byte and
// valid UTF-8; and time_ms a plain integer of at most 18 digits. For
// such input the result equals what encoding/json decodes.
//
// It returns the event and n > 0, the count of bytes through the
// closing brace. Otherwise n is 0, and short tells the two failures
// apart: true when b ends before the object does with nothing
// non-canonical seen yet (including empty or all-whitespace b), so
// more bytes are needed to decide; false when b is not canonical and
// must be decoded by encoding/json. The four strings share one
// allocation.
func ParseCanonical(b []byte) (ev Event, n int, short bool) {
	var span [4][2]int // [field] → value bytes b[lo:hi]
	var seen uint8
	i := skipSpace(b, 0)
	if i == len(b) {
		return Event{}, 0, true
	}
	if b[i] != '{' {
		return Event{}, 0, false
	}
	i = skipSpace(b, i+1)
	if i == len(b) {
		return Event{}, 0, true
	}
	if b[i] == '}' {
		return Event{}, i + 1, false
	}
	for {
		// Key.
		lo, hi, next, st := scanString(b, i)
		if st != scanOK {
			return Event{}, 0, st == scanShort
		}
		field := -1
		switch string(b[lo:hi]) {
		case "app":
			field = fieldApp
		case "bomb":
			field = fieldBomb
		case "user":
			field = fieldUser
		case "info":
			field = fieldInfo
		case "time_ms":
			field = fieldTimeMs
		}
		if field < 0 || seen&(1<<field) != 0 {
			return Event{}, 0, false
		}
		seen |= 1 << field
		i = skipSpace(b, next)
		if i == len(b) {
			return Event{}, 0, true
		}
		if b[i] != ':' {
			return Event{}, 0, false
		}
		i = skipSpace(b, i+1)
		if i == len(b) {
			return Event{}, 0, true
		}
		// Value.
		if field == fieldTimeMs {
			v, next, st := scanInt(b, i)
			if st != scanOK {
				return Event{}, 0, st == scanShort
			}
			ev.TimeMs = v
			i = next
		} else {
			lo, hi, next, st := scanString(b, i)
			if st != scanOK {
				return Event{}, 0, st == scanShort
			}
			span[field] = [2]int{lo, hi}
			i = next
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return Event{}, 0, true
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
			if i == len(b) {
				return Event{}, 0, true
			}
		case '}':
			ev.App, ev.Bomb, ev.User, ev.Info = sliceFields(b, &span)
			return ev, i + 1, false
		default:
			return Event{}, 0, false
		}
	}
}

// DecodeJSON decodes one Event JSON object that spans all of b:
// through ParseCanonical when b is canonical, else through
// encoding/json.
func DecodeJSON(b []byte) (Event, error) {
	if ev, n, _ := ParseCanonical(b); n > 0 && n == len(b) {
		return ev, nil
	}
	var ev Event
	if err := json.Unmarshal(b, &ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// sliceFields copies the four string values into one string and
// slices the fields out of it.
func sliceFields(b []byte, span *[4][2]int) (app, bomb, user, info string) {
	total := 0
	for _, sp := range span {
		total += sp[1] - sp[0]
	}
	var sb strings.Builder
	sb.Grow(total)
	for _, sp := range span {
		sb.Write(b[sp[0]:sp[1]])
	}
	s := sb.String()
	var out [4]string
	off := 0
	for f, sp := range span {
		out[f] = s[off : off+sp[1]-sp[0]]
		off += sp[1] - sp[0]
	}
	return out[fieldApp], out[fieldBomb], out[fieldUser], out[fieldInfo]
}

type scanStatus uint8

const (
	scanOK scanStatus = iota
	scanShort
	scanBad
)

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// scanString scans a canonical string starting at b[i] (which must be
// the opening quote) and returns its contents' bounds and the index
// past the closing quote.
func scanString(b []byte, i int) (lo, hi, next int, st scanStatus) {
	if b[i] != '"' {
		return 0, 0, 0, scanBad
	}
	lo = i + 1
	ascii := true
	for j := lo; j < len(b); j++ {
		c := b[j]
		switch {
		case c == '"':
			if !ascii && !utf8.Valid(b[lo:j]) {
				return 0, 0, 0, scanBad
			}
			return lo, j, j + 1, scanOK
		case c == '\\' || c < 0x20:
			return 0, 0, 0, scanBad
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return 0, 0, 0, scanShort
}

// scanInt scans a JSON integer with no fraction or exponent, no
// leading zero and at most maxCanonicalDigits digits. The byte after the digits must be
// present, so a number cut off by the end of b is short, not done.
func scanInt(b []byte, i int) (v int64, next int, st scanStatus) {
	neg := b[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		if i-start == maxCanonicalDigits || (i > start && b[start] == '0') {
			return 0, 0, scanBad
		}
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == len(b) {
		return 0, 0, scanShort
	}
	if i == start {
		return 0, 0, scanBad
	}
	switch b[i] {
	case '.', 'e', 'E':
		return 0, 0, scanBad
	}
	if neg {
		v = -v
	}
	return v, i, scanOK
}
