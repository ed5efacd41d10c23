package dex_test

import (
	"testing"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

// seedDex builds a small but representative DEX through dexgen: two
// classes, static and virtual methods, strings, fields, branches and a
// try/catch, so the fuzzer starts from structurally rich inputs.
func seedDex(f *testing.F) []byte {
	f.Helper()
	p := dexgen.New()
	helper := p.Class("Lfuzz/Helper;", "")
	helper.Static("add", "I", []string{"I", "I"}, func(a *dexgen.Asm) {
		a.Binop(0x90, 0, a.P(0), a.P(1)) // add-int
		a.Return(0)
	})
	cls := p.Class("Lfuzz/Seed;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.ConstString(0, "seed corpus")
		a.Const(1, 2)
		a.InvokeStatic("Lfuzz/Helper;", "add", "(II)I", 1, 1)
		a.MoveResult(1)
		a.IfZ(0x38, 1, "done") // if-eqz
		a.AddLit(1, 1, 3)
		a.Label("done")
		a.ReturnVoid()
	})
	data, err := p.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzDexRead feeds mutated bytes through dex.Read: parsing must never
// panic, and any input that parses must survive dex.Verify (and a Write
// attempt) without crashing — the exact pipeline a hostile classes.dex
// inside an APK reaches. A file that passes Verify must also have every
// jump target start a decoded instruction: the static readers drop the -1
// index of any other target, trusting Verify to have rejected it.
func FuzzDexRead(f *testing.F) {
	seed := seedDex(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])     // truncated file
	f.Add(seed[len(seed)/4:])     // missing header
	f.Add([]byte{})               // empty
	f.Add([]byte("dex\n035\x00")) // bare magic
	f.Add([]byte("dex\n039\x00" + "\x00\x00\x00\x00"))
	corrupt := append([]byte(nil), seed...)
	for i := 0x20; i < 0x40 && i < len(corrupt); i++ {
		corrupt[i] ^= 0xff // scrambled header section offsets
	}
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := dex.Read(data)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		// A file that parses must be verifiable and re-serializable
		// without crashing. Both may report errors — hostile input is
		// allowed to be structurally defective — but never panic.
		verified := len(dex.Verify(parsed)) == 0
		_, _ = parsed.Write()
		if verified {
			checkJumpTargets(t, parsed)
		}
	})
}

// checkJumpTargets fails t when a jump target of some decoded instruction in
// f does not start an instruction of its body.
func checkJumpTargets(t *testing.T, f *dex.File) {
	for ci := range f.Classes {
		cd := &f.Classes[ci]
		for _, list := range [][]dex.EncodedMethod{cd.DirectMeths, cd.VirtualMeths} {
			for _, em := range list {
				if em.Code == nil {
					continue
				}
				prog := bytecode.Read(em.Code.Insns)
				insts := prog.Insts()
				for i := range insts {
					for j := 0; j < insts[i].Jumps(); j++ {
						if target := insts[i].Jump(j); prog.Index(target) < 0 {
							t.Fatalf("%s: verified file has %s at pc %#x jumping to %#x, no instruction start",
								f.MethodAt(em.Method).Key(), insts[i].Op, insts[i].PC, target)
						}
					}
				}
			}
		}
	}
}
