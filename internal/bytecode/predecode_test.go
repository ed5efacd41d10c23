package bytecode

import (
	"reflect"
	"sync"
	"testing"
)

// TestMaxRegisterMatchesMapRegisters checks the allocation-free register
// ceiling against the authoritative MapRegisters operand layout for every
// opcode and a spread of operand values.
func TestMaxRegisterMatchesMapRegisters(t *testing.T) {
	cases := []Inst{
		{Op: OpNop},
		{Op: OpReturnVoid},
		{Op: OpMove, A: 3, B: 7},
		{Op: OpMoveFrom16, A: 250, B: 9},
		{Op: OpMoveResult, A: 12},
		{Op: OpConst4, A: 5, Lit: -3},
		{Op: OpConst, A: 200, Lit: 1 << 30},
		{Op: OpConstString, A: 15, Index: 3},
		{Op: OpInstanceOf, A: 1, B: 14, Index: 2},
		{Op: OpAddInt, A: 9, B: 200, C: 3},
		{Op: OpAddIntLit8, A: 3, B: 254, Lit: 7},
		{Op: OpAddIntLit16, A: 13, B: 2, Lit: 1000},
		{Op: OpIfEq, A: 4, B: 11, Off: 5},
		{Op: OpIfEqz, A: 6, Off: -2},
		{Op: OpGoto, Off: 3},
		{Op: OpPackedSwitch, A: 8, Off: 4, Keys: []int32{0}, Targets: []int32{4}},
		{Op: OpInvokeVirtual, A: 3, Index: 1, Args: []int{5, 2, 9}},
		{Op: OpInvokeStaticR, A: 4, Index: 1, Args: []int{40, 41, 42, 43}},
		{Op: OpInvokeStatic, A: 0, Index: 1}, // zero-arg: no register operands
	}
	for _, in := range cases {
		want := int32(-1)
		MapRegisters(in, func(r int32) int32 {
			if r > want {
				want = r
			}
			return r
		})
		if got := MaxRegister(in); got != want {
			t.Errorf("MaxRegister(%s %+v) = %d, want %d", in.Op, in, got, want)
		}
	}
}

// checkPredecodeAgainstDecode verifies the core predecode contract on one
// unit array: the predecoder's linear scan must mirror a step-by-step
// bytecode.Decode walk exactly — same coverage, same (pc, op, width,
// operands, max register) per instruction — and stop at the first malformed
// instruction, reporting that instruction's error from Err, so the
// uncovered tail falls back to the live decoder.
func checkPredecodeAgainstDecode(t *testing.T, insns []uint16) {
	t.Helper()
	p := Predecode(insns)
	if got, want := p.Len(), len(insns); got != want {
		t.Fatalf("Program.Len() = %d, want %d", got, want)
	}
	if !p.Matches(insns) {
		t.Fatalf("Program does not match its own source units")
	}
	covered := make(map[int]bool)
	n := 0
	var walkErr error
	for pc := 0; pc < len(insns); {
		if w, ok := PayloadAt(insns, pc); ok {
			pc += w
			continue
		}
		in, width, err := Decode(insns, pc)
		if err != nil {
			walkErr = err
			break // predecode must leave this pc and everything after unmapped
		}
		d := p.Lookup(pc)
		if d == nil {
			t.Fatalf("pc %d: Decode succeeds but Lookup returned nil", pc)
		}
		if int(d.PC) != pc {
			t.Fatalf("pc %d: predecoded PC %d", pc, d.PC)
		}
		if d.Width != width {
			t.Fatalf("pc %d: predecoded width %d, want %d", pc, d.Width, width)
		}
		if !d.Inst.Equal(&in) {
			t.Fatalf("pc %d: predecoded %+v, want %+v", pc, d.Inst, in)
		}
		var want int32 = -1
		MapRegisters(in, func(r int32) int32 {
			if r > want {
				want = r
			}
			return r
		})
		if d.MaxReg != want {
			t.Fatalf("pc %d: predecoded MaxReg %d, want %d", pc, d.MaxReg, want)
		}
		covered[pc] = true
		n++
		pc += width
	}
	if len(p.Insts()) != n {
		t.Fatalf("predecoded %d instructions, linear decode walk found %d", len(p.Insts()), n)
	}
	if !reflect.DeepEqual(p.Err(), walkErr) {
		t.Fatalf("Program.Err() = %v, decode walk stopped with %v", p.Err(), walkErr)
	}
	for pc := -2; pc < len(insns)+2; pc++ {
		d := p.Lookup(pc)
		if (d != nil) != covered[pc] {
			t.Fatalf("pc %d: Lookup mapped=%v, decode walk covered=%v", pc, d != nil, covered[pc])
		}
	}
	checkWalk(t, insns, p)
}

// checkWalk requires Walk to report p's instructions, widths and error.
func checkWalk(t *testing.T, insns []uint16, p *Program) {
	t.Helper()
	var got []DecodedInst
	err := Walk(insns, func(in *Inst, pc, width int) {
		got = append(got, DecodedInst{Inst: *in, Width: width, MaxReg: MaxRegister(*in), PC: int32(pc)})
	})
	if len(got) != len(p.Insts()) {
		t.Fatalf("Walk saw %d instructions, the program has %d", len(got), len(p.Insts()))
	}
	for i := range got {
		d := &p.Insts()[i]
		if got[i].PC != d.PC || got[i].Width != d.Width || !got[i].Inst.Equal(&d.Inst) {
			t.Fatalf("Walk instruction %d = %+v at pc %d, program has %+v at pc %d",
				i, got[i].Inst, got[i].PC, d.Inst, d.PC)
		}
	}
	if !reflect.DeepEqual(err, p.Err()) {
		t.Fatalf("Walk stopped with %v, Program.Err() = %v", err, p.Err())
	}
	if n, err := Count(insns); n != len(got) || !reflect.DeepEqual(err, p.Err()) {
		t.Fatalf("Count = %d, %v; Walk saw %d, %v", n, err, len(got), p.Err())
	}
}

// FuzzPredecode feeds arbitrary unit arrays — valid streams, malformed
// tails, payload fragments — through both decoders and requires identical
// results, the equivalence that lets the interpreter swap the per-step
// Decode for predecoded lookups.
func FuzzPredecode(f *testing.F) {
	var asm Assembler
	asm.Const(0, 7)
	asm.Const(1, 3)
	asm.Binop(OpAddInt, 2, 0, 1)
	asm.IfZ(OpIfNez, 2, "done")
	asm.Nop()
	asm.Label("done")
	asm.Return(2)
	valid, err := asm.Assemble()
	if err != nil {
		f.Fatalf("assemble seed: %v", err)
	}
	f.Add(unitsToBytes(valid))
	f.Add(unitsToBytes([]uint16{0x0012, 0x000e}))
	f.Add(unitsToBytes([]uint16{0x012b, 0x0002, 0x0000, PackedSwitchPayloadIdent, 0x0001, 0x0000, 0x0003, 0x0000}))
	f.Add(unitsToBytes([]uint16{0x1a00}))         // const-string truncated
	f.Add(unitsToBytes([]uint16{0xffff, 0x000e})) // unknown opcode
	f.Add(unitsToBytes([]uint16{0x0100, 0x0002})) // bare payload ident
	f.Add([]byte{0x0e})                           // odd byte count
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("oversized input")
		}
		insns := make([]uint16, len(data)/2)
		for i := range insns {
			insns[i] = uint16(data[2*i]) | uint16(data[2*i+1])<<8
		}
		checkPredecodeAgainstDecode(t, insns)
	})
}

func unitsToBytes(insns []uint16) []byte {
	out := make([]byte, 2*len(insns))
	for i, u := range insns {
		out[2*i] = byte(u)
		out[2*i+1] = byte(u >> 8)
	}
	return out
}

// TestProgramCacheContentKeyed checks that the cache keys by content, not
// slice identity: equal content returns the same program regardless of
// backing array, and an in-place mutation builds a fresh program instead of
// aliasing the stale one.
func TestProgramCacheContentKeyed(t *testing.T) {
	c := NewProgramCache()
	a := []uint16{0x0012, 0x000e} // const/4 v0,0; return-void
	p1 := c.Get(a)
	if c.Size() != 1 {
		t.Fatalf("cache size %d after first Get, want 1", c.Size())
	}
	b := append([]uint16(nil), a...)
	if p2 := c.Get(b); p2 != p1 || c.Size() != 1 {
		t.Fatalf("equal-content Get: same=%v size=%d, want the cached program and size 1", p2 == p1, c.Size())
	}
	a[0] = 0x1012 // const/4 v0,1 — self-modification of the live array
	if p3 := c.Get(a); p3 == p1 {
		t.Fatal("mutated-content Get returned the stale program")
	}
	if p1.Matches(a) {
		t.Fatal("stale program claims to match mutated units")
	}
	if c.Size() != 2 {
		t.Fatalf("cache size %d, want 2", c.Size())
	}
}

// TestProgramCacheReadThrough checks that Read returns the cached program
// for exactly the cached content and otherwise a fresh decode that it never
// inserts, including for a body one unit away from a cached one.
func TestProgramCacheReadThrough(t *testing.T) {
	c := NewProgramCache()
	a := []uint16{0x0013, 7, 0x0038, 3, 0x000e, 0x000e} // const/16 v0,7; if-eqz v0,+3; return-void x2
	r1 := c.Read(a)
	if c.Size() != 0 {
		t.Fatalf("cache size %d after a cold Read, want 0", c.Size())
	}
	if r2 := c.Read(a); r2 == r1 {
		t.Fatal("two cold Reads returned one program: the first was cached")
	}
	got := c.Get(a)
	if r := c.Read(a); r != got {
		t.Fatal("Read after Get did not return the cached program")
	}
	if c.Size() != 1 {
		t.Fatalf("cache size %d, want 1", c.Size())
	}

	b := append([]uint16(nil), a...)
	b[1] = 8 // const/16 v0,8: one unit away from the cached body
	rb := c.Read(b)
	if rb == got {
		t.Fatal("a body one unit away from a cached body read the cached program")
	}
	if !rb.Matches(b) || rb.Insts()[0].Lit != 8 {
		t.Fatalf("one-unit-away body decoded to %+v", rb.Insts()[0].Inst)
	}
	if c.Size() != 1 {
		t.Fatalf("cache size %d after reading a one-unit-away body, want 1", c.Size())
	}
	if want := Predecode(a); !reflect.DeepEqual(c.Read(a).Insts(), want.Insts()) {
		t.Fatal("cached program's instructions differ from a fresh decode")
	}
}

var processNonce uint16

// TestProcessCacheFilledOnlyByCached checks the process-level pair: Read
// leaves the process cache as it was, and once Cached has decoded a body,
// Read returns that program.
func TestProcessCacheFilledOnlyByCached(t *testing.T) {
	// A fresh body on every run, also under -count.
	processNonce++
	body := []uint16{0x0013, 0x5a17, 0x0013, processNonce, 0x000e} // const/16 v0 twice; return-void
	before := CachedPrograms()
	if Read(body) == Read(body) {
		t.Fatal("test body is already in the process cache")
	}
	if got := CachedPrograms(); got != before {
		t.Fatalf("process cache size %d after cold Reads, want %d", got, before)
	}
	p := Cached(body)
	if Read(body) != p {
		t.Fatal("Read after Cached did not return the cached program")
	}
}

// TestWalkReadsThroughProgramCache checks that Walk and Count never fill
// the process cache, and that once execution cached a body Walk hands out
// that program's instructions, the same sequence a cold Walk decodes.
func TestWalkReadsThroughProgramCache(t *testing.T) {
	processNonce++
	body := []uint16{0x0013, 0x6b28, 0x0013, processNonce, 0x0038, 0x0002, 0x000e, 0xffff}
	before := CachedPrograms()
	checkWalk(t, body, Predecode(body))
	if got := CachedPrograms(); got != before {
		t.Fatalf("process cache size %d after a cold Walk and Count, want %d", got, before)
	}
	p := Cached(body)
	if p.Err() == nil {
		t.Fatal("test body should stop decoding at its junk unit")
	}
	checkWalk(t, body, p)
	_ = Walk(body, func(in *Inst, pc, _ int) {
		if in != &p.Lookup(pc).Inst {
			t.Fatalf("warm Walk at pc %d did not read the cached program", pc)
		}
	})
}

// BenchmarkProgramCacheHit measures a static reader's hit: hash the body and
// compare it with the cached units.
func BenchmarkProgramCacheHit(b *testing.B) {
	c := NewProgramCache()
	body := make([]uint16, 0, 96)
	for len(body) < 94 {
		body = append(body, 0x0013, uint16(len(body))) // const/16 v0, n
	}
	body = append(body, 0x000e)
	want := c.Get(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Read(body) != want {
			b.Fatal("miss")
		}
	}
}

// TestProgramCacheConcurrentReadAndGet runs readers and fillers against one
// cache at once, as concurrent reveals do against the process cache: every
// result matches its body, and only Get fills the cache.
func TestProgramCacheConcurrentReadAndGet(t *testing.T) {
	c := NewProgramCache()
	bodies := make([][]uint16, 8)
	for i := range bodies {
		bodies[i] = []uint16{0x0013, uint16(i), 0x000e} // const/16 v0, i; return-void
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := bodies[(g+i)%len(bodies)]
				var p *Program
				if g%2 == 0 {
					p = c.Get(body)
				} else {
					p = c.Read(body)
				}
				if !p.Matches(body) || p.Err() != nil {
					t.Errorf("goroutine %d: program does not match its body", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Size() != len(bodies) {
		t.Errorf("cache size %d, want %d", c.Size(), len(bodies))
	}
}
