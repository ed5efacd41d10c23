package dex

import (
	"crypto/sha1"
	"hash/adler32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dexlego/internal/bytecode"
)

// buildSampleFile constructs a small but representative application: two
// classes with a hierarchy, static and instance fields, try/catch, a switch
// and cross-class calls.
func buildSampleFile(t *testing.T) *File {
	t.Helper()
	b := NewBuilder()

	main := b.Class("Lcom/test/Main;", AccPublic, "Landroid/app/Activity;")
	main.SourceFile("Main.java")
	phone := StringValue(b.String("800-123-456"))
	main.StaticField("PHONE", "Ljava/lang/String;", AccPrivate|AccFinal, &phone)
	main.InstanceField("count", "I", AccPrivate)

	getData := b.Method("Lcom/test/Main;", "getSensitiveData", "Ljava/lang/String;")
	sink := b.Method("Lcom/test/Main;", "sink", "V", "Ljava/lang/String;")

	var asm bytecode.Assembler
	asm.Invoke(bytecode.OpInvokeVirtual, getData, 2) // p0 in v2
	asm.MoveResultObject(0)
	asm.Const(1, 0)
	asm.Label("loop")
	asm.BinopLit8(bytecode.OpAddIntLit8, 1, 1, 1)
	asm.Const(3, 2)
	asm.If(bytecode.OpIfLt, 1, 3, "loop")
	asm.Invoke(bytecode.OpInvokeVirtual, sink, 2, 0)
	asm.ReturnVoid()
	insns, err := asm.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	main.Method("advancedLeak", "V", nil, AccPublic, &Code{
		RegistersSize: 4, InsSize: 1, OutsSize: 2, Insns: insns,
	})
	main.Method("bytecodeTamper", "V", []string{"I"}, AccPublic|AccNative, nil)

	var asm2 bytecode.Assembler
	asm2.Const(0, 0)
	asm2.SparseSwitch(1, []int32{2, 9}, []string{"two", "nine"})
	asm2.Label("out")
	asm2.Return(0)
	asm2.Label("two")
	asm2.Const(0, 20)
	asm2.Goto("out")
	asm2.Label("nine")
	asm2.Const(0, 90)
	asm2.Goto("out")
	insns2, err := asm2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	helper := b.Class("Lcom/test/Helper;", AccPublic, "Ljava/lang/Object;")
	helper.Method("lookup", "I", []string{"I"}, AccPublic|AccStatic, &Code{
		RegistersSize: 2, InsSize: 1,
		Insns: insns2,
		Tries: []Try{{
			Start: 0, Count: uint32(len(insns2)),
			Handlers: []TypeAddr{{Type: b.Type("Ljava/lang/Exception;"), Addr: 4}},
			CatchAll: 0,
		}},
	})
	// A subclass defined before its superclass to exercise topo-sorting.
	b.Class("Lcom/test/Sub;", AccPublic, "Lcom/test/Helper;")

	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := buildSampleFile(t)
	data, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:8]) != Magic {
		t.Fatalf("bad magic %q", data[:8])
	}
	got, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Strings, got.Strings) {
		t.Errorf("strings differ:\n%v\n%v", f.Strings, got.Strings)
	}
	if !reflect.DeepEqual(f.Types, got.Types) {
		t.Errorf("types differ")
	}
	if !reflect.DeepEqual(f.Protos, got.Protos) {
		t.Errorf("protos differ:\n%+v\n%+v", f.Protos, got.Protos)
	}
	if !reflect.DeepEqual(f.Fields, got.Fields) {
		t.Errorf("fields differ")
	}
	if !reflect.DeepEqual(f.Methods, got.Methods) {
		t.Errorf("methods differ")
	}
	if len(f.Classes) != len(got.Classes) {
		t.Fatalf("class count %d != %d", len(got.Classes), len(f.Classes))
	}
	for i := range f.Classes {
		want, have := f.Classes[i], got.Classes[i]
		if !reflect.DeepEqual(want, have) {
			t.Errorf("class %d differs:\nwant %+v\ngot  %+v", i, want, have)
		}
	}
	// Re-serialization must be byte-identical (deterministic writer).
	data2, err := got.Write()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, data2) {
		t.Error("writer is not deterministic across a read/write cycle")
	}
}

func TestCanonicalSortOrder(t *testing.T) {
	f := buildSampleFile(t)
	for i := 1; i < len(f.Strings); i++ {
		if f.Strings[i-1] >= f.Strings[i] {
			t.Errorf("strings not strictly sorted at %d: %q >= %q",
				i, f.Strings[i-1], f.Strings[i])
		}
	}
	for i := 1; i < len(f.Types); i++ {
		if f.Types[i-1] >= f.Types[i] {
			t.Errorf("types not sorted at %d", i)
		}
	}
	for i := 1; i < len(f.Fields); i++ {
		a, b := f.Fields[i-1], f.Fields[i]
		if a.Class > b.Class || (a.Class == b.Class && a.Name > b.Name) {
			t.Errorf("fields not sorted at %d", i)
		}
	}
	for i := 1; i < len(f.Methods); i++ {
		a, b := f.Methods[i-1], f.Methods[i]
		if a.Class > b.Class || (a.Class == b.Class && a.Name > b.Name) {
			t.Errorf("methods not sorted at %d", i)
		}
	}
	// Superclass must precede subclass.
	helperPos, subPos := -1, -1
	for i := range f.Classes {
		switch f.TypeName(f.Classes[i].Class) {
		case "Lcom/test/Helper;":
			helperPos = i
		case "Lcom/test/Sub;":
			subPos = i
		}
	}
	if helperPos < 0 || subPos < 0 || helperPos > subPos {
		t.Errorf("class defs not topologically sorted: helper %d, sub %d", helperPos, subPos)
	}
}

func TestBytecodeIndicesRemapped(t *testing.T) {
	f := buildSampleFile(t)
	em := f.FindMethod("Lcom/test/Main;", "advancedLeak", "()V")
	if em == nil {
		t.Fatal("advancedLeak not found")
	}
	prog := bytecode.Predecode(em.Code.Insns)
	placed := prog.Insts()
	if err := prog.Err(); err != nil {
		t.Fatal(err)
	}
	var calls []string
	for _, p := range placed {
		if p.Inst.Op.IsInvoke() {
			calls = append(calls, f.MethodAt(p.Inst.Index).Key())
		}
	}
	want := []string{
		"Lcom/test/Main;->getSensitiveData()Ljava/lang/String;",
		"Lcom/test/Main;->sink(Ljava/lang/String;)V",
	}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("calls after remap = %v, want %v", calls, want)
	}
}

func TestReadCorruptFiles(t *testing.T) {
	f := buildSampleFile(t)
	data, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, 0x20, 0x6f, len(data) / 2} {
			if _, err := Read(data[:n]); err == nil {
				t.Errorf("Read(%d bytes): want error", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] = 'x'
		if _, err := Read(bad); err == nil {
			t.Error("want error")
		}
	})
	t.Run("flipped body byte", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)-3] ^= 0xff
		if _, err := Read(bad); err != ErrChecksum {
			t.Errorf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped checksum", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[8] ^= 0xff
		if _, err := Read(bad); err != ErrChecksum {
			t.Errorf("got %v, want ErrChecksum", err)
		}
	})
}

func TestLookupHelpers(t *testing.T) {
	f := buildSampleFile(t)
	if f.FindClass("Lcom/test/Main;") == nil {
		t.Error("FindClass failed")
	}
	if f.FindClass("Lno/such/Class;") != nil {
		t.Error("FindClass found a ghost")
	}
	if m := f.FindMethod("Lcom/test/Main;", "advancedLeak", ""); m == nil {
		t.Error("FindMethod without signature failed")
	}
	if m := f.FindMethod("Lcom/test/Main;", "advancedLeak", "(I)V"); m != nil {
		t.Error("FindMethod matched wrong signature")
	}
	if got := f.TypeName(NoIndex); got != "<none>" {
		t.Errorf("TypeName(NoIndex) = %q", got)
	}
	cd := f.FindClass("Lcom/test/Main;")
	var phoneVal *Value
	for i, ef := range cd.StaticFields {
		if f.FieldAt(ef.Field).Name == "PHONE" {
			phoneVal = &cd.StaticValues[i]
		}
	}
	if phoneVal == nil || phoneVal.Kind != ValueString {
		t.Fatalf("PHONE static value missing or wrong kind: %+v", phoneVal)
	}
	if got := f.String(phoneVal.Index); got != "800-123-456" {
		t.Errorf("PHONE = %q", got)
	}
	if n := f.InstructionCount(); n < 10 {
		t.Errorf("InstructionCount = %d, want >= 10", n)
	}
	if n := f.MethodCount(); n != 3 {
		t.Errorf("MethodCount = %d, want 3", n)
	}
}

func TestSignatureParsing(t *testing.T) {
	tests := []struct {
		sig    string
		params []string
		ret    string
		ok     bool
		words  int    // J and D take two argument words
		refs   uint64 // the words that hold references
	}{
		{"()V", nil, "V", true, 0, 0},
		{"(I)V", []string{"I"}, "V", true, 1, 0},
		{"(Ljava/lang/String;I)Z", []string{"Ljava/lang/String;", "I"}, "Z", true, 2, 1},
		{"([I[Ljava/lang/String;)[B", []string{"[I", "[Ljava/lang/String;"}, "[B", true, 2, 3},
		{"(JLjava/lang/Object;D[IZ)V", []string{"J", "Ljava/lang/Object;", "D", "[I", "Z"}, "V", true, 7, 1<<2 | 1<<5},
		{"", nil, "", false, 0, 0},
		{"(IV", nil, "", false, 0, 0},
		{"(Ljava/lang/String)V", nil, "", false, 0, 0},
	}
	for _, tt := range tests {
		sig, err := ParseSignature(tt.sig)
		if tt.ok != (err == nil) {
			t.Errorf("ParseSignature(%q) err = %v, want ok=%v", tt.sig, err, tt.ok)
			continue
		}
		if !tt.ok {
			continue
		}
		if !reflect.DeepEqual(sig.Params, tt.params) || sig.Return != tt.ret || sig.Words != tt.words || sig.Refs != tt.refs {
			t.Errorf("ParseSignature(%q) = %v, %q, words %d, refs %b", tt.sig, sig.Params, sig.Return, sig.Words, sig.Refs)
		}
		if again, _ := ParseSignature(tt.sig); again != sig {
			t.Errorf("ParseSignature(%q) twice: not the memoized Signature", tt.sig)
		}
		if InsSize(sig.Words, AccStatic) != tt.words || InsSize(sig.Words, AccPublic) != tt.words+1 {
			t.Errorf("%s: ins static %d, instance %d", tt.sig, InsSize(sig.Words, AccStatic), InsSize(sig.Words, AccPublic))
		}
	}
}

func TestShorty(t *testing.T) {
	if got := ShortyOf("V", []string{"Ljava/lang/String;", "I", "[B"}); got != "VLIL" {
		t.Errorf("shorty = %q, want VLIL", got)
	}
}

func TestBuilderIdempotentInterning(t *testing.T) {
	b := NewBuilder()
	if b.String("x") != b.String("x") {
		t.Error("String not interned")
	}
	if b.Type("I") != b.Type("I") {
		t.Error("Type not interned")
	}
	if b.Proto("V", "I") != b.Proto("V", "I") {
		t.Error("Proto not interned")
	}
	if b.Field("La;", "f", "I") != b.Field("La;", "f", "I") {
		t.Error("Field not interned")
	}
	if b.Method("La;", "m", "V") != b.Method("La;", "m", "V") {
		t.Error("Method not interned")
	}
	c1 := b.Class("La;", AccPublic, "")
	c2 := b.Class("La;", AccPublic, "")
	if c1.idx != c2.idx {
		t.Error("Class not deduplicated")
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(); err == nil {
		t.Error("second Finish must fail")
	}
}

func TestBuilderCycleDetection(t *testing.T) {
	b := NewBuilder()
	b.Class("La;", AccPublic, "Lb;")
	b.Class("Lb;", AccPublic, "La;")
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("want cycle error, got %v", err)
	}
}

func TestWriteValidation(t *testing.T) {
	f := &File{Types: []uint32{5}} // string index out of range
	if _, err := f.Write(); err == nil {
		t.Error("want validation error")
	}
	f2 := &File{
		Strings: []string{"I", "La;"},
		Types:   []uint32{0, 1},
		Classes: []ClassDef{{
			Class: 1, Superclass: NoIndex, SourceFile: NoIndex,
			StaticValues: []Value{IntValue(1)},
		}},
	}
	if _, err := f2.Write(); err == nil {
		t.Error("static values without fields: want error")
	}
}

func TestTryCovers(t *testing.T) {
	tr := Try{Start: 4, Count: 6}
	for pc, want := range map[int]bool{3: false, 4: true, 9: true, 10: false} {
		if got := tr.Covers(pc); got != want {
			t.Errorf("Covers(%d) = %v, want %v", pc, got, want)
		}
	}
}

func TestCodeHandlers(t *testing.T) {
	c := &Code{Tries: []Try{
		{Start: 2, Count: 4, Handlers: []TypeAddr{{Type: 1, Addr: 20}, {Type: 2, Addr: 24}}, CatchAll: 30},
		{Start: 4, Count: 4, Handlers: []TypeAddr{{Type: 3, Addr: 40}}, CatchAll: -1},
		{Start: 5, Count: 1, CatchAll: 50},
	}}
	for pc, want := range map[int][]int{
		0: nil,                  // uncovered
		2: {20, 24, 30},         // typed catches before the catch-all
		4: {20, 24, 30, 40},     // overlapping tries in table order
		5: {20, 24, 30, 40, 50}, // a catch-all-only try
		7: {40},                 // past the first try
		8: nil,                  // past every try
	} {
		var got []int
		c.Handlers(pc, func(h int) { got = append(got, h) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Handlers(%d) = %v, want %v", pc, got, want)
		}
	}
}

func TestCodeClone(t *testing.T) {
	var nilCode *Code
	if nilCode.Clone() != nil {
		t.Error("nil clone should be nil")
	}
	c := &Code{
		RegistersSize: 3, Insns: []uint16{1, 2},
		Tries: []Try{{Handlers: []TypeAddr{{Type: 1, Addr: 2}}, CatchAll: -1}},
	}
	cl := c.Clone()
	cl.Insns[0] = 99
	cl.Tries[0].Handlers[0].Type = 99
	if c.Insns[0] == 99 || c.Tries[0].Handlers[0].Type == 99 {
		t.Error("Clone shares memory")
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	f := &File{}
	data, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Strings)+len(got.Types)+len(got.Classes) != 0 {
		t.Error("empty file round trip not empty")
	}
}

// TestReadHostileMutations flips bytes across the file, repairs the
// checksum and signature so parsing proceeds past the header, and checks
// the reader never panics — it must either error or produce a File.
func TestReadHostileMutations(t *testing.T) {
	f := buildSampleFile(t)
	orig, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	fixup := func(b []byte) {
		sig := sha1.Sum(b[32:])
		copy(b[12:32], sig[:])
		sum := adler32.Checksum(b[12:])
		b[8], b[9], b[10], b[11] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		data := append([]byte(nil), orig...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			pos := 32 + rng.Intn(len(data)-32)
			data[pos] ^= byte(1 + rng.Intn(255))
		}
		fixup(data)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: reader panicked: %v", trial, r)
				}
			}()
			if parsed, err := Read(data); err == nil {
				// A tolerated mutation must still be re-serializable or
				// fail cleanly — never panic.
				_, _ = parsed.Write()
				_ = Verify(parsed)
			}
		}()
	}
}
