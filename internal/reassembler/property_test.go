package reassembler_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/reassembler"
)

// genRandomMethod emits a random but well-formed method body: straight-line
// arithmetic blocks chained by forward conditional branches, one bounded
// counting loop, and an optional sparse switch. All control flow either
// moves forward or decrements a bounded counter, so every generated method
// terminates.
func genRandomMethod(a *dexgen.Asm, rng *rand.Rand) {
	blocks := rng.Intn(5) + 3
	ops := []bytecode.Opcode{
		bytecode.OpAddInt, bytecode.OpSubInt, bytecode.OpMulInt,
		bytecode.OpXorInt, bytecode.OpOrInt, bytecode.OpAndInt,
	}
	a.Move(0, a.P(0)) // v0 = p0 (accumulator)
	a.Const(1, int64(rng.Intn(19))+1)

	// Bounded loop: iterate p0 % 5 times.
	a.BinopLit8(bytecode.OpRemIntLit8, 2, a.P(0), 5)
	a.IfZ(bytecode.OpIfLtz, 2, "blk0") // negative inputs skip the loop
	a.Label("loop")
	a.IfZ(bytecode.OpIfLez, 2, "blk0")
	a.Binop(bytecode.OpAddInt, 0, 0, 2)
	a.BinopLit8(bytecode.OpAddIntLit8, 2, 2, -1)
	a.Goto("loop")

	for b := 0; b < blocks; b++ {
		a.Label(fmt.Sprintf("blk%d", b))
		for i := rng.Intn(5) + 2; i > 0; i-- {
			op := ops[rng.Intn(len(ops))]
			a.Binop(op, 0, 0, 1)
			if rng.Intn(3) == 0 {
				a.BinopLit8(bytecode.OpAddIntLit8, 1, 1, int64(rng.Intn(7))+1)
			}
		}
		// Occasionally branch forward over the next block.
		if b+1 < blocks && rng.Intn(2) == 0 {
			target := b + 1 + rng.Intn(blocks-b-1)
			cmp := []bytecode.Opcode{
				bytecode.OpIfEq, bytecode.OpIfNe, bytecode.OpIfLt, bytecode.OpIfGe,
			}[rng.Intn(4)]
			a.If(cmp, 0, 1, fmt.Sprintf("blk%d", target+0))
		}
		// Occasionally switch forward on the accumulator.
		if b+2 < blocks && rng.Intn(4) == 0 {
			a.BinopLit8(bytecode.OpAndIntLit8, 3, 0, 3)
			labels := []string{
				fmt.Sprintf("blk%d", b+1),
				fmt.Sprintf("blk%d", b+1+rng.Intn(blocks-b-1)),
			}
			a.SparseSwitch(3, []int32{0, 2}, labels)
		}
	}
	a.Label(fmt.Sprintf("blk%d", blocks))
	a.Return(0)
}

// TestRandomProgramRoundTrip is the soundness property of Section IV-C:
// executing a program under JIT collection and reassembling the result
// yields a program with identical observable behavior on the collected
// inputs.
func TestRandomProgramRoundTrip(t *testing.T) {
	inputs := []int64{-7, 0, 1, 5, 13, 42}
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := dexgen.New()
			cls := p.Class("Lrand/P;", "")
			nMethods := rng.Intn(3) + 1
			for m := 0; m < nMethods; m++ {
				m := m
				cls.Method(dexgen.MethodSpec{
					Name: fmt.Sprintf("f%d", m), Ret: "I",
					Params: []string{"I"}, Static: true, Locals: 6,
				}, func(a *dexgen.Asm) { genRandomMethod(a, rng) })
			}
			f0, err := p.Finish()
			if err != nil {
				t.Fatal(err)
			}
			data, err := f0.Write()
			if err != nil {
				t.Fatal(err)
			}
			pkg := apk.New("rand", "1", "")
			pkg.SetDex(data)

			// Execute everything under collection.
			rt := art.NewRuntime(art.DefaultPhone())
			col := collector.New()
			rt.AddHooks(col.Hooks())
			if err := rt.LoadAPK(pkg); err != nil {
				t.Fatal(err)
			}
			want := make(map[string]int64)
			staticInsns := f0.InstructionCount()
			for m := 0; m < nMethods; m++ {
				for _, in := range inputs {
					res, err := rt.Call("Lrand/P;", fmt.Sprintf("f%d", m), "(I)I",
						nil, []art.Value{art.IntVal(in)})
					if err != nil {
						t.Fatalf("original f%d(%d): %v", m, in, err)
					}
					want[fmt.Sprintf("%d/%d", m, in)] = res.Int
				}
			}

			// Collection must not blow up the code: unique instructions per
			// tree are bounded by the static body (Algorithm 1's dedup).
			for key, rec := range col.Result().Methods {
				for _, tree := range rec.Trees {
					if tree.Size() > staticInsns {
						t.Fatalf("%s: tree size %d exceeds whole-program %d",
							key, tree.Size(), staticInsns)
					}
				}
			}

			// Reassemble and re-execute on the same inputs.
			f1, _, err := reassembler.Reassemble(col.Result())
			if err != nil {
				t.Fatal(err)
			}
			bin, err := f1.Write()
			if err != nil {
				t.Fatalf("revealed dex does not serialize: %v", err)
			}
			f2, err := dex.Read(bin)
			if err != nil {
				t.Fatalf("revealed dex does not re-parse: %v", err)
			}
			rt2 := art.NewRuntime(art.DefaultPhone())
			if _, err := rt2.LoadDex(f2); err != nil {
				t.Fatal(err)
			}
			for m := 0; m < nMethods; m++ {
				for _, in := range inputs {
					res, err := rt2.Call("Lrand/P;", fmt.Sprintf("f%d", m), "(I)I",
						nil, []art.Value{art.IntVal(in)})
					if err != nil {
						t.Fatalf("revealed f%d(%d): %v", m, in, err)
					}
					if got, key := res.Int, fmt.Sprintf("%d/%d", m, in); got != want[key] {
						t.Errorf("f%d(%d) = %d after reassembly, want %d",
							m, in, got, want[key])
					}
				}
			}
		})
	}
}

// TestRandomTamperRoundTrip extends the property with self-modification: a
// native tamper flips an arithmetic opcode between executions; the
// reassembled method must preserve the behavior of BOTH observed states
// behind the instrument branch (baseline path replays the final state).
func TestRandomTamperRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := dexgen.New()
			cls := p.Class("Ltam/P;", "")
			cls.Native("flip", "V")
			cls.Static("g", "I", []string{"I"}, func(a *dexgen.Asm) {
				a.Move(0, a.P(0))
				a.Label("site")
				a.BinopLit8(bytecode.OpAddIntLit8, 0, 0, 5)
				a.InvokeStatic("Ltam/P;", "flip", "()V")
				a.Return(0)
			})
			f0, err := p.Finish()
			if err != nil {
				t.Fatal(err)
			}
			data, err := f0.Write()
			if err != nil {
				t.Fatal(err)
			}
			pkg := apk.New("tam", "1", "")
			pkg.SetDex(data)

			rng := rand.New(rand.NewSource(seed))
			alt := []bytecode.Opcode{
				bytecode.OpMulIntLit8, bytecode.OpXorIntLit8, bytecode.OpOrIntLit8,
			}[rng.Intn(3)]

			flip := func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
				return art.Value{}, env.TamperMethod("Ltam/P;", "g",
					func(insns []uint16) []uint16 {
						for pc := 0; pc < len(insns); {
							in, w, err := bytecode.Decode(insns, pc)
							if err != nil {
								return nil
							}
							if in.Op == bytecode.OpAddIntLit8 {
								in.Op = alt
								units, err := bytecode.Encode(&in)
								if err != nil {
									return nil
								}
								copy(insns[pc:], units)
								return nil
							}
							if in.Op == alt {
								in.Op = bytecode.OpAddIntLit8
								units, err := bytecode.Encode(&in)
								if err != nil {
									return nil
								}
								copy(insns[pc:], units)
								return nil
							}
							pc += w
						}
						return nil
					})
			}

			rt := art.NewRuntime(art.DefaultPhone())
			rt.RegisterNative("Ltam/P;->flip()V", flip)
			col := collector.New()
			rt.AddHooks(col.Hooks())
			if err := rt.LoadAPK(pkg); err != nil {
				t.Fatal(err)
			}
			// Two executions observe both opcode states.
			var wantAdd, wantAlt int64
			r1, err := rt.Call("Ltam/P;", "g", "(I)I", nil, []art.Value{art.IntVal(9)})
			if err != nil {
				t.Fatal(err)
			}
			wantAdd = r1.Int
			r2, err := rt.Call("Ltam/P;", "g", "(I)I", nil, []art.Value{art.IntVal(9)})
			if err != nil {
				t.Fatal(err)
			}
			wantAlt = r2.Int
			if wantAdd == wantAlt {
				t.Skip("opcodes coincide on this input")
			}

			f1, stats, err := reassembler.Reassemble(col.Result())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Variants == 0 && stats.Divergences == 0 {
				t.Fatal("self-modification not captured")
			}
			rt2 := art.NewRuntime(art.DefaultPhone())
			rt2.RegisterNative("Ltam/P;->flip()V",
				func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
					return art.Value{}, nil // the revealed app needs no tampering
				})
			if _, err := rt2.LoadDex(f1); err != nil {
				t.Fatal(err)
			}
			// Baseline path (all instrument fields false) replays one state.
			res, err := rt2.Call("Ltam/P;", "g", "(I)I", nil, []art.Value{art.IntVal(9)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Int != wantAdd && res.Int != wantAlt {
				t.Errorf("revealed g(9) = %d, want %d or %d", res.Int, wantAdd, wantAlt)
			}
			// Flipping the instrument fields replays the other state.
			mod, err := rt2.FindClass(reassembler.InstrumentClass)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt2.EnsureInitialized(mod); err != nil {
				t.Fatal(err)
			}
			seen := map[int64]bool{res.Int: true}
			for name := range mod.Statics {
				mod.Statics[name] = art.BoolVal(true)
			}
			res2, err := rt2.Call("Ltam/P;", "g", "(I)I", nil, []art.Value{art.IntVal(9)})
			if err != nil {
				t.Fatal(err)
			}
			seen[res2.Int] = true
			if !seen[wantAdd] || !seen[wantAlt] {
				t.Errorf("revealed variants produce %v, want both %d and %d",
					seen, wantAdd, wantAlt)
			}
		})
	}
}
