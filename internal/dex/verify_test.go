package dex

import (
	"slices"
	"strings"
	"testing"

	"dexlego/internal/bytecode"
)

func TestVerifyCleanFile(t *testing.T) {
	f := buildSampleFile(t)
	if errs := Verify(f); len(errs) != 0 {
		t.Errorf("clean file reported %d defects: %v", len(errs), errs)
	}
}

func mustAsm(t *testing.T, build func(a *bytecode.Assembler)) []uint16 {
	t.Helper()
	var a bytecode.Assembler
	build(&a)
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return insns
}

// rawFile assembles a file bypassing Builder.Finish so defects survive.
func rawFile(t *testing.T, code *Code) *File {
	t.Helper()
	b := NewBuilder()
	cb := b.Class("Lv/C;", AccPublic, "Ljava/lang/Object;")
	cb.Method("f", "V", nil, AccPublic|AccStatic, code)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestVerifyFindsDefects(t *testing.T) {
	cases := []struct {
		name string
		code *Code
		want string
	}{
		{
			"register overflow",
			&Code{RegistersSize: 1, Insns: mustAsm(t, func(a *bytecode.Assembler) {
				a.Const(5, 1) // v5 in a 1-register frame
				a.ReturnVoid()
			})},
			"exceeds registers_size",
		},
		{
			"fall off the end",
			&Code{RegistersSize: 2, Insns: mustAsm(t, func(a *bytecode.Assembler) {
				a.Const(0, 1)
			})},
			"fall off the end",
		},
		{
			"ins exceed registers",
			&Code{RegistersSize: 1, InsSize: 3, Insns: mustAsm(t, func(a *bytecode.Assembler) {
				a.ReturnVoid()
			})},
			"ins 3 exceed registers",
		},
		{
			"try range overflow",
			&Code{
				RegistersSize: 2,
				Insns: mustAsm(t, func(a *bytecode.Assembler) {
					a.ReturnVoid()
				}),
				Tries: []Try{{Start: 0, Count: 99, CatchAll: 0}},
			},
			"exceeds body",
		},
		{
			"handler into the void",
			&Code{
				RegistersSize: 2,
				Insns: mustAsm(t, func(a *bytecode.Assembler) {
					a.Const(0, 1)
					a.ReturnVoid()
				}),
				Tries: []Try{{Start: 0, Count: 1, CatchAll: 55}},
			},
			"not an instruction start",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := rawFile(t, tc.code)
			errs := Verify(f)
			found := false
			for _, err := range errs {
				if strings.Contains(err.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("defect %q not reported; got %v", tc.want, errs)
			}
		})
	}

	// These rows pin the complete defect list, in report order, for the
	// remaining per-method report paths. Their bodies are installed after
	// Builder.Finish, whose operand remap rejects some of them.
	const m = "dex: verify Lv/C;->f()V: "
	exact := []struct {
		name string
		code *Code
		want []string
	}{
		{
			"undecodable body",
			&Code{RegistersSize: 1, Insns: []uint16{0xffff, 0xffff, 0x000e}},
			[]string{m + "undecodable body: bytecode: decode at pc 0: unknown opcode op-0xff"},
		},
		{
			"empty instruction array",
			&Code{RegistersSize: 1},
			[]string{m + "empty instruction array"},
		},
		{
			"pool index out of range",
			&Code{RegistersSize: 1, Insns: []uint16{0x001a, 999, 0x000e}}, // const-string v0, string@999
			[]string{m + "pc 0x0: const-string index 999 out of range"},
		},
		{
			"switch target mid-instruction",
			&Code{RegistersSize: 1, Insns: []uint16{
				0x002b, 6, 0, // packed-switch v0, payload at +6
				0x0013, 7, // const/16 v0, 7 at pc 3..4
				0x000e,                // return-void
				0x0100, 1, 0, 0, 4, 0, // payload: key 0 -> +4, the const/16's second unit
			}},
			[]string{m + "pc 0x0: packed-switch targets 0x4, not an instruction start"},
		},
		{
			"sparse-switch keys not ascending",
			&Code{RegistersSize: 1, Insns: []uint16{
				0x002c, 4, 0, // sparse-switch v0, payload at +4
				0x000e,                            // return-void at pc 3
				0x0200, 2, 5, 0, 5, 0, 3, 0, 3, 0, // payload: keys 5, 5 -> +3, +3
			}},
			[]string{m + "pc 0x0: sparse-switch key 5 at case 1 not above 5"},
		},
		{
			"handler mid-instruction",
			&Code{
				RegistersSize: 1,
				Insns:         []uint16{0x0013, 7, 0x000e}, // const/16 v0, 7; return-void
				Tries:         []Try{{Start: 0, Count: 2, Handlers: []TypeAddr{{Type: 0, Addr: 1}}, CatchAll: -1}},
			},
			[]string{m + "try 0: handler 0x1 not an instruction start"},
		},
		{
			"catch-all mid-instruction",
			&Code{
				RegistersSize: 1,
				Insns:         []uint16{0x0013, 7, 0x000e},
				Tries:         []Try{{Start: 0, Count: 2, CatchAll: 1}},
			},
			[]string{m + "try 0: catch-all 0x1 not an instruction start"},
		},
		{
			"handler type out of range",
			&Code{
				RegistersSize: 1,
				Insns:         []uint16{0x0013, 7, 0x000e},
				Tries:         []Try{{Start: 0, Count: 2, Handlers: []TypeAddr{{Type: 999, Addr: 2}}, CatchAll: -1}},
			},
			[]string{m + "try 0: handler type 999 out of range"},
		},
		{
			"ins other than the prototype's",
			&Code{RegistersSize: 1, InsSize: 1, Insns: []uint16{0x000e}},
			[]string{m + "ins 1, but its prototype takes 0"},
		},
		{
			"outs below the widest invoke",
			&Code{RegistersSize: 1, Insns: []uint16{0x1071, 0, 0x0000, 0x000e}}, // invoke-static {v0}, method@0
			[]string{m + "outs 0, but its widest invoke passes 1 words"},
		},
	}
	for _, tc := range exact {
		t.Run(tc.name, func(t *testing.T) {
			f := rawFile(t, &Code{RegistersSize: 1, Insns: []uint16{0x000e}})
			f.Classes[0].DirectMeths[0].Code = tc.code
			var got []string
			for _, err := range Verify(f) {
				got = append(got, err.Error())
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("defects:\n got %q\nwant %q", got, tc.want)
			}
		})
	}

	// Placement rows: a method whose access flags name the other table.
	placement := []struct {
		name    string
		flags   uint32
		ins     uint16 // the receiver's word, for an instance method
		virtual bool   // move the method into virtual_methods
		want    string
	}{
		{"direct method that is not static, private or a constructor", AccPublic, 1, false,
			m + "access flags 0x1 place it in virtual_methods, not direct_methods"},
		{"virtual method that is static", AccPublic | AccStatic, 0, true,
			m + "access flags 0x9 place it in direct_methods, not virtual_methods"},
	}
	for _, tc := range placement {
		t.Run(tc.name, func(t *testing.T) {
			f := rawFile(t, &Code{RegistersSize: 1, InsSize: tc.ins, Insns: []uint16{0x000e}})
			cd := &f.Classes[0]
			cd.DirectMeths[0].AccessFlags = tc.flags
			if tc.virtual {
				cd.DirectMeths, cd.VirtualMeths = nil, cd.DirectMeths
			}
			var got []string
			for _, err := range Verify(f) {
				got = append(got, err.Error())
			}
			if want := []string{tc.want}; !slices.Equal(got, want) {
				t.Errorf("defects:\n got %q\nwant %q", got, want)
			}
		})
	}
}

func TestVerifyBranchIntoMidInstruction(t *testing.T) {
	// A hand-crafted branch landing in the middle of a 2-unit instruction.
	insns := []uint16{
		uint16(bytecode.OpIfEqz), 2, // if-eqz v0, +2 -> lands at pc 2
		0x000e, // return-void at pc 2 is FINE; craft a worse one below
	}
	// Make pc 2 the second unit of a const/16 instead.
	insns = []uint16{
		uint16(bytecode.OpIfEqz), 3, // branch to pc 3 = middle of const/16
		uint16(bytecode.OpConst16), 7, // pc 2..3
		0x000e, // pc 4
	}
	f := rawFile(t, &Code{RegistersSize: 2, Insns: insns})
	errs := Verify(f)
	found := false
	for _, err := range errs {
		if strings.Contains(err.Error(), "not an instruction start") {
			found = true
		}
	}
	if !found {
		t.Errorf("mid-instruction branch not reported: %v", errs)
	}
}
