package bytecode

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOpcodeMetadata(t *testing.T) {
	for _, op := range Opcodes() {
		if !op.Valid() {
			t.Errorf("%s: Opcodes() returned invalid opcode", op)
		}
		if op.Format().Width() < 1 || op.Format().Width() > 3 {
			t.Errorf("%s: bad width %d", op, op.Format().Width())
		}
		if op.String() == "" {
			t.Errorf("opcode 0x%02x has empty name", uint8(op))
		}
	}
	if Opcode(0xff).Valid() {
		t.Error("0xff should be invalid")
	}
	if got := Opcode(0xff).String(); got != "op-0xff" {
		t.Errorf("unknown opcode name = %q", got)
	}
}

func TestOpcodePredicates(t *testing.T) {
	tests := []struct {
		op                                    Opcode
		branch, gotoOp, sw, invoke, ret, term bool
	}{
		{OpIfEq, true, false, false, false, false, false},
		{OpIfLez, true, false, false, false, false, false},
		{OpGoto, false, true, false, false, false, true},
		{OpGoto32, false, true, false, false, false, true},
		{OpPackedSwitch, false, false, true, false, false, false},
		{OpSparseSwitch, false, false, true, false, false, false},
		{OpInvokeVirtual, false, false, false, true, false, false},
		{OpInvokeInterR, false, false, false, true, false, false},
		{OpReturnVoid, false, false, false, false, true, true},
		{OpReturnObject, false, false, false, false, true, true},
		{OpThrow, false, false, false, false, false, true},
		{OpNop, false, false, false, false, false, false},
	}
	for _, tt := range tests {
		if got := tt.op.IsBranch(); got != tt.branch {
			t.Errorf("%s.IsBranch() = %v", tt.op, got)
		}
		if got := tt.op.IsGoto(); got != tt.gotoOp {
			t.Errorf("%s.IsGoto() = %v", tt.op, got)
		}
		if got := tt.op.IsSwitch(); got != tt.sw {
			t.Errorf("%s.IsSwitch() = %v", tt.op, got)
		}
		if got := tt.op.IsInvoke(); got != tt.invoke {
			t.Errorf("%s.IsInvoke() = %v", tt.op, got)
		}
		if got := tt.op.IsReturn(); got != tt.ret {
			t.Errorf("%s.IsReturn() = %v", tt.op, got)
		}
		if got := tt.op.IsTerminator(); got != tt.term {
			t.Errorf("%s.IsTerminator() = %v", tt.op, got)
		}
	}
}

// randInst generates a random, encodable instruction for the given opcode.
func randInst(op Opcode, rng *rand.Rand) Inst {
	in := Inst{Op: op}
	r4 := func() int32 { return rng.Int31n(16) }
	r8 := func() int32 { return rng.Int31n(256) }
	switch op.Format() {
	case Fmt10x:
	case Fmt12x:
		in.A, in.B = r4(), r4()
	case Fmt11n:
		in.A = r4()
		in.Lit = int64(rng.Intn(16) - 8)
	case Fmt11x:
		in.A = r8()
	case Fmt10t:
		in.Off = int32(rng.Intn(256) - 128)
	case Fmt20t, Fmt30t:
		in.Off = rng.Int31n(1<<16) - 1<<15
	case Fmt22x:
		in.A = r8()
		in.B = rng.Int31n(1 << 16)
	case Fmt21t:
		in.A = r8()
		in.Off = rng.Int31n(1<<16) - 1<<15
	case Fmt21s:
		in.A = r8()
		in.Lit = int64(rng.Intn(1<<16) - 1<<15)
	case Fmt21h:
		in.A = r8()
		in.Lit = int64(int16(rng.Intn(1<<16))) << 16
	case Fmt21c:
		in.A = r8()
		in.Index = rng.Uint32() & 0xffff
	case Fmt23x:
		in.A, in.B, in.C = r8(), r8(), r8()
	case Fmt22b:
		in.A, in.B = r8(), r8()
		in.Lit = int64(rng.Intn(256) - 128)
	case Fmt22t:
		in.A, in.B = r4(), r4()
		in.Off = rng.Int31n(1<<16) - 1<<15
	case Fmt22s:
		in.A, in.B = r4(), r4()
		in.Lit = int64(rng.Intn(1<<16) - 1<<15)
	case Fmt22c:
		in.A, in.B = r4(), r4()
		in.Index = rng.Uint32() & 0xffff
	case Fmt31i:
		in.A = r8()
		in.Lit = int64(int32(rng.Uint32()))
	case Fmt31t:
		in.A = r8()
		n := rng.Intn(4) + 1
		in.Keys = make([]int32, n)
		in.Targets = make([]int32, n)
		first := rng.Int31n(100) - 50
		for i := 0; i < n; i++ {
			if op == OpPackedSwitch {
				in.Keys[i] = first + int32(i)
			} else {
				in.Keys[i] = first + int32(i*3) // strictly ascending
			}
			in.Targets[i] = rng.Int31n(200) + 3
		}
	case Fmt35c:
		n := rng.Intn(6)
		in.Args = make([]int, n)
		for i := range in.Args {
			in.Args[i] = rng.Intn(16)
		}
		in.A = int32(n)
		in.Index = rng.Uint32() & 0xffff
	case Fmt3rc:
		n := rng.Intn(10)
		start := rng.Intn(100)
		in.Args = make([]int, n)
		for i := range in.Args {
			in.Args[i] = start + i
		}
		in.A = int32(n)
		in.Index = rng.Uint32() & 0xffff
	}
	return in
}

func TestEncodeDecodeRoundTripAllOpcodes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, op := range Opcodes() {
		for trial := 0; trial < 50; trial++ {
			in := randInst(op, rng)
			units, err := Encode(&in)
			if err != nil {
				t.Fatalf("%s: encode: %v", op, err)
			}
			if len(units) != in.Width() {
				t.Fatalf("%s: encoded width %d want %d", op, len(units), in.Width())
			}
			buf := units
			if op.IsSwitch() {
				// Place payload right after the instruction (even pc 0+3 →
				// pad to 4).
				in.Off = 4
				units, err = Encode(&in)
				if err != nil {
					t.Fatalf("%s: re-encode: %v", op, err)
				}
				payload, err := EncodePayload(&in)
				if err != nil {
					t.Fatalf("%s: payload: %v", op, err)
				}
				buf = append(append(units, uint16(OpNop)), payload...)
			}
			got, w, err := Decode(buf, 0)
			if err != nil {
				t.Fatalf("%s: decode: %v", op, err)
			}
			if w != in.Width() {
				t.Fatalf("%s: decoded width %d want %d", op, w, in.Width())
			}
			if !got.Equal(&in) {
				t.Fatalf("%s: round trip mismatch\n in: %+v\nout: %+v", op, in, got)
			}
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	ops := Opcodes()
	f := func(opPick uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		op := ops[int(opPick)%len(ops)]
		if op.IsSwitch() {
			return true // covered above; payload placement differs
		}
		in := randInst(op, rng)
		units, err := Encode(&in)
		if err != nil {
			return false
		}
		got, _, err := Decode(units, 0)
		return err == nil && got.Equal(&in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name  string
		insns []uint16
		pc    int
	}{
		{"out of bounds", []uint16{uint16(OpNop)}, 5},
		{"negative pc", []uint16{uint16(OpNop)}, -1},
		{"unknown opcode", []uint16{0x00ff}, 0},
		{"truncated 21c", []uint16{uint16(OpConstString)}, 0},
		{"payload as instruction", []uint16{PackedSwitchPayloadIdent, 0}, 0},
		{"switch payload oob", []uint16{uint16(OpPackedSwitch), 0x100, 0}, 0},
		{"switch bad ident", []uint16{uint16(OpPackedSwitch) | 0, 4, 0, uint16(OpNop), 0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := Decode(tt.insns, tt.pc); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestEncodeErrors(t *testing.T) {
	tests := []struct {
		name string
		in   Inst
	}{
		{"unknown opcode", Inst{Op: 0xff}},
		{"12x reg overflow", Inst{Op: OpMove, A: 16, B: 0}},
		{"11n literal overflow", Inst{Op: OpConst4, A: 0, Lit: 8}},
		{"10t offset overflow", Inst{Op: OpGoto, Off: 200}},
		{"21c index overflow", Inst{Op: OpConstString, A: 0, Index: 1 << 16}},
		{"21h not high16", Inst{Op: OpConstHigh16, A: 0, Lit: 1}},
		{"35c too many args", Inst{Op: OpInvokeStatic, Args: []int{0, 1, 2, 3, 4, 5}}},
		{"35c arg overflow", Inst{Op: OpInvokeStatic, Args: []int{16}}},
		{"3rc non-consecutive", Inst{Op: OpInvokeStaticR, Args: []int{1, 3}}},
		{"22t reg overflow", Inst{Op: OpIfEq, A: 16, B: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Encode(&tt.in); err == nil {
				t.Errorf("want error, got nil")
			}
		})
	}
	if _, err := EncodePayload(&Inst{Op: OpNop}); err == nil {
		t.Error("EncodePayload(nop): want error")
	}
	if _, err := EncodePayload(&Inst{Op: OpPackedSwitch, Keys: []int32{0, 2}, Targets: []int32{1, 2}}); err == nil {
		t.Error("EncodePayload(non-consecutive packed keys): want error")
	}
	if _, err := EncodePayload(&Inst{Op: OpSparseSwitch, Keys: []int32{5, 5}, Targets: []int32{1, 2}}); err == nil {
		t.Error("EncodePayload(non-ascending sparse keys): want error")
	}
}

func TestAssemblerLoop(t *testing.T) {
	// for (v0 = 0; v0 < 10; v0++) {} ; return v0
	var a Assembler
	a.Const(0, 0)
	a.Label("loop")
	a.Const(1, 10)
	a.If(OpIfGe, 0, 1, "done")
	a.BinopLit8(OpAddIntLit8, 0, 0, 1)
	a.Goto("loop")
	a.Label("done")
	a.Return(0)
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	prog := Predecode(insns)
	placed := prog.Insts()
	if err := prog.Err(); err != nil {
		t.Fatal(err)
	}
	// const/4, const/16 (10 exceeds 4-bit range), if-ge, add-int/lit8,
	// goto/16, return.
	wantOps := []Opcode{OpConst4, OpConst16, OpIfGe, OpAddIntLit8, OpGoto16, OpReturn}
	if len(placed) != len(wantOps) {
		t.Fatalf("got %d instructions, want %d", len(placed), len(wantOps))
	}
	for i, p := range placed {
		if p.Inst.Op != wantOps[i] {
			t.Errorf("inst %d = %s, want %s", i, p.Inst.Op, wantOps[i])
		}
	}
	// The if-ge at pc 2 must target the return.
	ifInst := placed[2]
	if got := ifInst.PC + ifInst.Inst.Off; got != placed[5].PC {
		t.Errorf("if-ge targets pc %d, want %d", got, placed[5].PC)
	}
	// The goto at pc 6 must target the loop head at pc 1.
	g := placed[4]
	if got := g.PC + g.Inst.Off; got != placed[1].PC {
		t.Errorf("goto targets pc %d, want %d", got, placed[1].PC)
	}
}

func TestAssemblerSwitch(t *testing.T) {
	var a Assembler
	a.SparseSwitch(0, []int32{10, -3, 7}, []string{"ten", "neg", "seven"})
	a.Label("fall")
	a.Const(1, 0)
	a.Goto("end")
	a.Label("ten")
	a.Const(1, 1)
	a.Goto("end")
	a.Label("neg")
	a.Const(1, 2)
	a.Goto("end")
	a.Label("seven")
	a.Const(1, 3)
	a.Label("end")
	a.Return(1)
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := Decode(insns, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != OpSparseSwitch {
		t.Fatalf("first inst = %s", in.Op)
	}
	if len(in.Keys) != 3 || in.Keys[0] != -3 || in.Keys[1] != 7 || in.Keys[2] != 10 {
		t.Fatalf("keys = %v, want sorted [-3 7 10]", in.Keys)
	}
	// Each target must land on a const/4 with the matching literal.
	wantLit := map[int32]int64{10: 1, -3: 2, 7: 3}
	for i, k := range in.Keys {
		tpc := int(in.Targets[i])
		ti, _, err := Decode(insns, tpc)
		if err != nil {
			t.Fatalf("decode target %d: %v", tpc, err)
		}
		if ti.Op != OpConst4 || ti.Lit != wantLit[k] {
			t.Errorf("key %d target: got %s #%d, want const/4 #%d", k, ti.Op, ti.Lit, wantLit[k])
		}
	}
	// Payload must be 4-byte aligned.
	ppc := 0 + int(in.Off)
	if ppc%2 != 0 {
		t.Errorf("payload pc %d not even", ppc)
	}
	if _, ok := PayloadAt(insns, ppc); !ok {
		t.Errorf("no payload at pc %d", ppc)
	}
	// Predecode must skip the payload without error.
	if err := Predecode(insns).Err(); err != nil {
		t.Errorf("Predecode: %v", err)
	}
}

func TestAssemblerPackedSwitch(t *testing.T) {
	var a Assembler
	a.PackedSwitch(0, 5, []string{"a", "b"})
	a.Label("a")
	a.Const(1, 1)
	a.Label("b")
	a.ReturnVoid()
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := Decode(insns, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Keys[0] != 5 || in.Keys[1] != 6 {
		t.Errorf("keys = %v, want [5 6]", in.Keys)
	}
}

func TestAssemblerErrors(t *testing.T) {
	t.Run("undefined label", func(t *testing.T) {
		var a Assembler
		a.Goto("nowhere")
		if _, err := a.Assemble(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("duplicate label", func(t *testing.T) {
		var a Assembler
		a.Label("x").ReturnVoid()
		a.Label("x").ReturnVoid()
		if _, err := a.Assemble(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad if opcode", func(t *testing.T) {
		var a Assembler
		a.If(OpNop, 0, 1, "x")
		if _, err := a.Assemble(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad ifz opcode", func(t *testing.T) {
		var a Assembler
		a.IfZ(OpIfEq, 0, "x")
		if _, err := a.Assemble(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("switch arity mismatch", func(t *testing.T) {
		var a Assembler
		a.SparseSwitch(0, []int32{1}, []string{"a", "b"})
		if _, err := a.Assemble(); err == nil {
			t.Error("want error")
		}
	})
}

func TestTrailingLabel(t *testing.T) {
	var a Assembler
	a.Const(0, 1)
	a.IfZ(OpIfEqz, 0, "end")
	a.Const(0, 2)
	a.Label("end") // label bound to the return below
	a.ReturnVoid()
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	prog := Predecode(insns)
	placed := prog.Insts()
	if err := prog.Err(); err != nil {
		t.Fatal(err)
	}
	last := placed[len(placed)-1]
	branch := placed[1]
	if branch.PC+branch.Inst.Off != last.PC {
		t.Errorf("branch target %d, want %d", branch.PC+branch.Inst.Off, last.PC)
	}
}

func TestSuccessors(t *testing.T) {
	const pc = 10
	for _, tc := range []struct {
		name  string
		in    Inst
		next  int
		jumps []int
	}{
		{"goto", Inst{Op: OpGoto, Off: 5}, -1, []int{15}},
		{"goto/16", Inst{Op: OpGoto16, Off: -4}, -1, []int{6}},
		{"if-eq", Inst{Op: OpIfEq, Off: -2}, 12, []int{8}},
		{"if-eqz", Inst{Op: OpIfEqz, Off: 7}, 12, []int{17}},
		{"sparse-switch", Inst{Op: OpSparseSwitch, Targets: []int32{9, 3}}, 13, []int{19, 13}},
		{"packed-switch", Inst{Op: OpPackedSwitch, Targets: []int32{4}}, 13, []int{14}},
		{"nop", Inst{Op: OpNop}, 11, nil},
		{"return-void", Inst{Op: OpReturnVoid}, -1, nil},
		{"return", Inst{Op: OpReturn}, -1, nil},
		{"throw", Inst{Op: OpThrow}, -1, nil},
	} {
		d := DecodedInst{Inst: tc.in, Width: tc.in.Width(), PC: pc}
		if got := d.Next(); got != tc.next {
			t.Errorf("%s: Next() = %d, want %d", tc.name, got, tc.next)
		}
		var jumps []int
		for i := 0; i < d.Jumps(); i++ {
			jumps = append(jumps, d.Jump(i))
		}
		if !reflect.DeepEqual(jumps, tc.jumps) {
			t.Errorf("%s: jumps = %v, want %v", tc.name, jumps, tc.jumps)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := Inst{Op: OpInvokeStatic, Args: []int{1, 2}, Keys: []int32{1}, Targets: []int32{2}}
	cl := in.Clone()
	cl.Args[0] = 99
	cl.Keys[0] = 99
	cl.Targets[0] = 99
	if in.Args[0] == 99 || in.Keys[0] == 99 || in.Targets[0] == 99 {
		t.Error("Clone shares backing arrays")
	}
	if cl := in.Clone(); !in.Equal(&cl) {
		t.Error("clone not Equal to original")
	}
}

func TestDisassemble(t *testing.T) {
	var a Assembler
	a.Const(0, 7)
	a.ConstString(1, 3)
	a.Invoke(OpInvokeStatic, 12, 0, 1)
	a.ReturnVoid()
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	lines, err := Disassemble(insns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	resolved, err := Disassemble(insns, func(kind IndexKind, idx uint32) string {
		if kind == IndexString {
			return `"hello"`
		}
		return "Lcom/x;->m()V"
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := `0001: const-string v1, "hello"`; resolved[1] != want {
		t.Errorf("line = %q, want %q", resolved[1], want)
	}
}

func TestMoveWideRegistersPromote(t *testing.T) {
	var a Assembler
	a.Move(20, 3)        // must promote to move/from16
	a.MoveObject(200, 7) // must promote to move-object/from16
	a.ReturnVoid()
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	in, _, _ := Decode(insns, 0)
	if in.Op != OpMoveFrom16 {
		t.Errorf("got %s, want move/from16", in.Op)
	}
	in2, _, _ := Decode(insns, 2)
	if in2.Op != OpMoveObject16 {
		t.Errorf("got %s, want move-object/from16", in2.Op)
	}
}

func TestConstSelectsNarrowestForm(t *testing.T) {
	tests := []struct {
		lit  int64
		dst  int32
		want Opcode
	}{
		{3, 0, OpConst4},
		{-8, 0, OpConst4},
		{8, 0, OpConst16},
		{3, 16, OpConst16},
		{1 << 14, 0, OpConst16},
		{1 << 16, 0, OpConstHigh16},
		{0x12340000, 0, OpConstHigh16},
		{0x12345678, 0, OpConst},
	}
	for _, tt := range tests {
		var a Assembler
		a.Const(tt.dst, tt.lit)
		a.ReturnVoid()
		insns, err := a.Assemble()
		if err != nil {
			t.Fatalf("lit %d: %v", tt.lit, err)
		}
		in, _, _ := Decode(insns, 0)
		if in.Op != tt.want {
			t.Errorf("Const(%d) = %s, want %s", tt.lit, in.Op, tt.want)
		}
		if in.Lit != tt.lit {
			t.Errorf("Const(%d) literal = %d", tt.lit, in.Lit)
		}
	}
}

// TestAssemblerMultipleSwitches is a regression test: payload layout must
// reserve the full width of every payload even before targets are resolved
// (a second switch's payload used to overlap the first).
func TestAssemblerMultipleSwitches(t *testing.T) {
	var a Assembler
	a.SparseSwitch(0, []int32{1, 5, 9}, []string{"x", "y", "z"})
	a.Label("mid")
	a.PackedSwitch(1, 0, []string{"x", "y"})
	a.Label("x")
	a.Const(2, 1)
	a.Label("y")
	a.Const(2, 2)
	a.Label("z")
	a.ReturnVoid()
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	prog := Predecode(insns)
	placed := prog.Insts()
	if err := prog.Err(); err != nil {
		t.Fatalf("Predecode after multi-switch assembly: %v", err)
	}
	switches := 0
	for _, p := range placed {
		if p.Inst.Op.IsSwitch() {
			switches++
			if len(p.Inst.Keys) == 0 || len(p.Inst.Keys) != len(p.Inst.Targets) {
				t.Errorf("switch at pc %d decoded with keys=%v targets=%v",
					p.PC, p.Inst.Keys, p.Inst.Targets)
			}
		}
	}
	if switches != 2 {
		t.Errorf("decoded %d switches, want 2", switches)
	}
}

func TestMapRegisters(t *testing.T) {
	shift := func(r int32) int32 { return r + 1 }
	tests := []struct {
		in   Inst
		want Inst
	}{
		{Inst{Op: OpMove, A: 1, B: 2}, Inst{Op: OpMove, A: 2, B: 3}},
		{Inst{Op: OpAddInt, A: 0, B: 1, C: 2}, Inst{Op: OpAddInt, A: 1, B: 2, C: 3}},
		{Inst{Op: OpConstString, A: 3, Index: 7}, Inst{Op: OpConstString, A: 4, Index: 7}},
		{Inst{Op: OpGoto, Off: 5}, Inst{Op: OpGoto, Off: 5}}, // no registers
		{
			Inst{Op: OpInvokeStatic, Args: []int{1, 2}, A: 2, Index: 9},
			Inst{Op: OpInvokeStatic, Args: []int{2, 3}, A: 2, Index: 9},
		},
	}
	for _, tt := range tests {
		got := MapRegisters(tt.in, shift)
		if !got.Equal(&tt.want) {
			t.Errorf("MapRegisters(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
	// The original must be untouched (deep copy).
	in := Inst{Op: OpInvokeStatic, Args: []int{1}}
	_ = MapRegisters(in, shift)
	if in.Args[0] != 1 {
		t.Error("MapRegisters mutated its input")
	}
}
