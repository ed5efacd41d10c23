package art

import (
	"strings"
	"testing"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// TestHandlerTableComplete is the completeness property of the dispatch
// table: every opcode the decoder can emit must have a handler, or the
// predecoded path would fail programs the reference switch used to run.
// The bytecode package's opcode table is the source of truth for what
// Decode can produce.
func TestHandlerTableComplete(t *testing.T) {
	for _, op := range bytecode.Opcodes() {
		if handlers[op] == nil {
			t.Errorf("opcode %s (0x%02x) is decodable but has no handler", op, uint8(op))
		}
	}
}

// TestHandlerTableRejectsUnknown checks the inverse property: opcode bytes
// the decoder can never produce must not have handlers, so the table cannot
// silently execute junk that the reference interpreter would reject.
func TestHandlerTableRejectsUnknown(t *testing.T) {
	known := make(map[bytecode.Opcode]bool)
	for _, op := range bytecode.Opcodes() {
		known[op] = true
	}
	for b := 0; b < 256; b++ {
		op := bytecode.Opcode(b)
		if !known[op] && handlers[op] != nil {
			t.Errorf("opcode byte 0x%02x has a handler but is not decodable", b)
		}
	}
}

// buildBadMethod hand-assembles Lbad/B;->f()V with the given raw units and
// register count, bypassing the assembler's validation.
func buildBadMethod(t *testing.T, insns []uint16, regs uint16) *dex.File {
	t.Helper()
	b := dex.NewBuilder()
	cb := b.Class("Lbad/B;", dex.AccPublic, "Ljava/lang/Object;")
	cb.Method("f", "V", nil, dex.AccPublic|dex.AccStatic, &dex.Code{
		RegistersSize: regs,
		Insns:         insns,
	})
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runBadMethod loads the file into a fresh runtime with the given predecode
// mode and returns the interpreter error.
func runBadMethod(t *testing.T, f *dex.File, predecode bool) error {
	t.Helper()
	rt := NewRuntime(DefaultPhone())
	rt.SetPredecode(predecode)
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Call("Lbad/B;", "f", "()V", nil, nil)
	if err == nil {
		t.Fatal("malformed code must error")
	}
	return err
}

// TestErrorParityAcrossInterpreters pins the failure contract of the
// predecoded path to the reference interpreter: undecodable opcodes and
// out-of-range registers must fail with the exact same error text in both
// modes, so tooling that matches on the messages cannot tell them apart.
func TestErrorParityAcrossInterpreters(t *testing.T) {
	cases := []struct {
		name    string
		insns   []uint16
		regs    uint16
		wantSub string
	}{
		// 0xff is not a DEX opcode: the decode error must surface verbatim.
		{"unknown opcode", []uint16{0x00ff}, 2, "unknown opcode"},
		// const/4 v1 in a 1-register frame: the register guard hoisted out
		// of the step loop must produce the historical message.
		{"register out of range", []uint16{0x0112, 0x000e}, 1,
			"art: Lbad/B;->f()V: register v1 out of range at pc 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildBadMethod(t, tc.insns, tc.regs)
			on := runBadMethod(t, f, true)
			off := runBadMethod(t, f, false)
			if on.Error() != off.Error() {
				t.Errorf("error text diverges:\n predecode on:  %v\n predecode off: %v", on, off)
			}
			if !strings.Contains(on.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", on, tc.wantSub)
			}
		})
	}
}
