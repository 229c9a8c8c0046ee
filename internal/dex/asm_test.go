package dex

import (
	"strings"
	"testing"
)

const sampleAsm = `
; A small app in assembly form.
class App
field count int 0
field title str "start"

method bump 0 handler
  get-static r0, App.count
  add-k r0, r0, 1
  put-static App.count, r0
  return r0
end

method classify 1
  switch r0, [1=@one 2=@two], @other
one:
  const-int r1, 10
  return r1
two:
  const-int r1, 20
  return r1
other:
  const-int r1, -1
  return r1
end

method greet 1 synthetic
  const-str r1, "hi there"
  call-api r2, concat, r1, 2   ; r1,r2 window is illustrative
  return r1
end

method loop 0
  const-int r0, 0
  const-int r1, 5
top:
  if-ge r0, r1, @done
  add-k r0, r0, 1
  goto @top
done:
  return r0
end
endclass
blob 0a0bff
`

func TestAssembleBasics(t *testing.T) {
	f, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	c := f.Class("App")
	if c == nil {
		t.Fatal("class missing")
	}
	if len(c.Fields) != 2 || c.Fields[1].Init.Str() != "start" {
		t.Errorf("fields = %+v", c.Fields)
	}
	if got := len(c.Methods); got != 4 {
		t.Fatalf("methods = %d", got)
	}
	if !c.Method("bump").IsHandler() {
		t.Error("bump should be a handler")
	}
	if !c.Method("greet").IsSynthetic() {
		t.Error("greet should be synthetic")
	}
	if len(f.Blobs) != 1 || len(f.Blobs[0]) != 3 {
		t.Errorf("blobs = %v", f.Blobs)
	}
	if err := ValidateLinked(f); err != nil {
		t.Fatal(err)
	}
	// The switch assembled with resolved targets.
	sw := c.Method("classify")
	if len(sw.Tables) != 1 || len(sw.Tables[0].Cases) != 2 {
		t.Fatalf("switch table = %+v", sw.Tables)
	}
}

func TestAssembleRoundTripThroughCodec(t *testing.T) {
	f, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(Encode(f))
	if err != nil {
		t.Fatal(err)
	}
	if !filesEqual(f, g) {
		t.Error("assembled file does not survive the codec")
	}
}

func TestAssembledCodeRuns(t *testing.T) {
	// Full toolchain smoke: assemble, then verify the loop's shape via
	// the disassembler (the vm package cannot be imported here; the
	// instrument tests execute assembled-equivalent code).
	f, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(f)
	for _, want := range []string{"if-ge", "goto", "switch", `"hi there"`, "App.count"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"method outside class", "method m 0\nend"},
		{"field outside class", "field x int 1"},
		{"unknown op", "class C\nmethod m 0\n  frobnicate r0\nend\nendclass"},
		{"unknown api", "class C\nmethod m 0\n  call-api -, noSuchApi, r0, 0\nend\nendclass"},
		{"bad register", "class C\nmethod m 0\n  const-int rx, 1\nend\nendclass"},
		{"undefined label", "class C\nmethod m 0\n  goto @missing\nend\nendclass"},
		{"missing end", "class C\nmethod m 0\n  nop"},
		{"missing endclass", "class C\nmethod m 0\n  nop\nend"},
		{"nested class", "class C\nclass D"},
		{"bad blob", "blob zz"},
		{"bad switch", "class C\nmethod m 1\n  switch r0, [oops], @d\nd:\nend\nendclass"},
		{"unknown flag", "class C\nmethod m 0 sparkly\nend\nendclass"},
		{"bad string", `class C` + "\nmethod m 0\n  const-str r0, unquoted\nend\nendclass"},
		{"duplicate class", "class C\nendclass\nclass C\nendclass"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Assemble(tc.src); err == nil {
				t.Errorf("%s: assembled successfully", tc.name)
			}
		})
	}
}

func TestAssembleComments(t *testing.T) {
	src := `
class C
method m 0 ; trailing comment on method
  const-str r0, "semi;colon inside string"  ; comment after
  call-api -, log, r0, 1
end
endclass`
	f, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Lookup("semi;colon inside string"); !ok {
		t.Error("string literal with semicolon mangled by comment stripping")
	}
}

func TestAssembleNegativeAndHexInts(t *testing.T) {
	src := `
class C
field magic int 0xfff000
method m 0
  const-int r0, -42
  const-int r1, 0x1f
  return r0
end
endclass`
	f, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Class("C").Fields[0].Init.Int != 0xfff000 {
		t.Error("hex field value wrong")
	}
	code := f.Class("C").Method("m").Code
	if code[0].Imm != -42 || code[1].Imm != 0x1f {
		t.Errorf("const imms = %d, %d", code[0].Imm, code[1].Imm)
	}
}
