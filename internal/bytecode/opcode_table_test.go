package bytecode

import (
	"fmt"
	"testing"
)

// mapOpcodeTable is the opcode table as it stood when it was a
// map[Opcode]opcodeInfo. The dense array must answer every accessor
// exactly as this literal did.
var mapOpcodeTable = map[Opcode]opcodeInfo{
	OpNop:             {"nop", Fmt10x, IndexNone},
	OpMove:            {"move", Fmt12x, IndexNone},
	OpMoveFrom16:      {"move/from16", Fmt22x, IndexNone},
	OpMoveObject:      {"move-object", Fmt12x, IndexNone},
	OpMoveObject16:    {"move-object/from16", Fmt22x, IndexNone},
	OpMoveResult:      {"move-result", Fmt11x, IndexNone},
	OpMoveResultObj:   {"move-result-object", Fmt11x, IndexNone},
	OpMoveException:   {"move-exception", Fmt11x, IndexNone},
	OpReturnVoid:      {"return-void", Fmt10x, IndexNone},
	OpReturn:          {"return", Fmt11x, IndexNone},
	OpReturnObject:    {"return-object", Fmt11x, IndexNone},
	OpConst4:          {"const/4", Fmt11n, IndexNone},
	OpConst16:         {"const/16", Fmt21s, IndexNone},
	OpConst:           {"const", Fmt31i, IndexNone},
	OpConstHigh16:     {"const/high16", Fmt21h, IndexNone},
	OpConstString:     {"const-string", Fmt21c, IndexString},
	OpConstClass:      {"const-class", Fmt21c, IndexType},
	OpCheckCast:       {"check-cast", Fmt21c, IndexType},
	OpInstanceOf:      {"instance-of", Fmt22c, IndexType},
	OpArrayLength:     {"array-length", Fmt12x, IndexNone},
	OpNewInstance:     {"new-instance", Fmt21c, IndexType},
	OpNewArray:        {"new-array", Fmt22c, IndexType},
	OpThrow:           {"throw", Fmt11x, IndexNone},
	OpGoto:            {"goto", Fmt10t, IndexNone},
	OpGoto16:          {"goto/16", Fmt20t, IndexNone},
	OpGoto32:          {"goto/32", Fmt30t, IndexNone},
	OpPackedSwitch:    {"packed-switch", Fmt31t, IndexNone},
	OpSparseSwitch:    {"sparse-switch", Fmt31t, IndexNone},
	OpIfEq:            {"if-eq", Fmt22t, IndexNone},
	OpIfNe:            {"if-ne", Fmt22t, IndexNone},
	OpIfLt:            {"if-lt", Fmt22t, IndexNone},
	OpIfGe:            {"if-ge", Fmt22t, IndexNone},
	OpIfGt:            {"if-gt", Fmt22t, IndexNone},
	OpIfLe:            {"if-le", Fmt22t, IndexNone},
	OpIfEqz:           {"if-eqz", Fmt21t, IndexNone},
	OpIfNez:           {"if-nez", Fmt21t, IndexNone},
	OpIfLtz:           {"if-ltz", Fmt21t, IndexNone},
	OpIfGez:           {"if-gez", Fmt21t, IndexNone},
	OpIfGtz:           {"if-gtz", Fmt21t, IndexNone},
	OpIfLez:           {"if-lez", Fmt21t, IndexNone},
	OpAGet:            {"aget", Fmt23x, IndexNone},
	OpAGetObject:      {"aget-object", Fmt23x, IndexNone},
	OpAPut:            {"aput", Fmt23x, IndexNone},
	OpAPutObject:      {"aput-object", Fmt23x, IndexNone},
	OpIGet:            {"iget", Fmt22c, IndexField},
	OpIGetObject:      {"iget-object", Fmt22c, IndexField},
	OpIGetBoolean:     {"iget-boolean", Fmt22c, IndexField},
	OpIPut:            {"iput", Fmt22c, IndexField},
	OpIPutObject:      {"iput-object", Fmt22c, IndexField},
	OpIPutBoolean:     {"iput-boolean", Fmt22c, IndexField},
	OpSGet:            {"sget", Fmt21c, IndexField},
	OpSGetObject:      {"sget-object", Fmt21c, IndexField},
	OpSGetBoolean:     {"sget-boolean", Fmt21c, IndexField},
	OpSPut:            {"sput", Fmt21c, IndexField},
	OpSPutObject:      {"sput-object", Fmt21c, IndexField},
	OpSPutBoolean:     {"sput-boolean", Fmt21c, IndexField},
	OpInvokeVirtual:   {"invoke-virtual", Fmt35c, IndexMethod},
	OpInvokeSuper:     {"invoke-super", Fmt35c, IndexMethod},
	OpInvokeDirect:    {"invoke-direct", Fmt35c, IndexMethod},
	OpInvokeStatic:    {"invoke-static", Fmt35c, IndexMethod},
	OpInvokeInterface: {"invoke-interface", Fmt35c, IndexMethod},
	OpInvokeVirtualR:  {"invoke-virtual/range", Fmt3rc, IndexMethod},
	OpInvokeSuperR:    {"invoke-super/range", Fmt3rc, IndexMethod},
	OpInvokeDirectR:   {"invoke-direct/range", Fmt3rc, IndexMethod},
	OpInvokeStaticR:   {"invoke-static/range", Fmt3rc, IndexMethod},
	OpInvokeInterR:    {"invoke-interface/range", Fmt3rc, IndexMethod},
	OpNegInt:          {"neg-int", Fmt12x, IndexNone},
	OpNotInt:          {"not-int", Fmt12x, IndexNone},
	OpAddInt:          {"add-int", Fmt23x, IndexNone},
	OpSubInt:          {"sub-int", Fmt23x, IndexNone},
	OpMulInt:          {"mul-int", Fmt23x, IndexNone},
	OpDivInt:          {"div-int", Fmt23x, IndexNone},
	OpRemInt:          {"rem-int", Fmt23x, IndexNone},
	OpAndInt:          {"and-int", Fmt23x, IndexNone},
	OpOrInt:           {"or-int", Fmt23x, IndexNone},
	OpXorInt:          {"xor-int", Fmt23x, IndexNone},
	OpShlInt:          {"shl-int", Fmt23x, IndexNone},
	OpShrInt:          {"shr-int", Fmt23x, IndexNone},
	OpUshrInt:         {"ushr-int", Fmt23x, IndexNone},
	OpAddIntLit16:     {"add-int/lit16", Fmt22s, IndexNone},
	OpAddIntLit8:      {"add-int/lit8", Fmt22b, IndexNone},
	OpRsubIntLit8:     {"rsub-int/lit8", Fmt22b, IndexNone},
	OpMulIntLit8:      {"mul-int/lit8", Fmt22b, IndexNone},
	OpDivIntLit8:      {"div-int/lit8", Fmt22b, IndexNone},
	OpRemIntLit8:      {"rem-int/lit8", Fmt22b, IndexNone},
	OpAndIntLit8:      {"and-int/lit8", Fmt22b, IndexNone},
	OpOrIntLit8:       {"or-int/lit8", Fmt22b, IndexNone},
	OpXorIntLit8:      {"xor-int/lit8", Fmt22b, IndexNone},
	OpShlIntLit8:      {"shl-int/lit8", Fmt22b, IndexNone},
	OpShrIntLit8:      {"shr-int/lit8", Fmt22b, IndexNone},
}

// TestDenseOpcodeTableMatchesMap pins the [256]opcodeInfo table to the map
// literal it replaced: every supported opcode keeps its name, format and
// index kind, and every other byte stays invalid with zero format and no
// index — including through Decode and Encode.
func TestDenseOpcodeTableMatchesMap(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := Opcode(i)
		want, ok := mapOpcodeTable[op]
		if op.Valid() != ok {
			t.Errorf("0x%02x: Valid = %t, want %t", i, op.Valid(), ok)
		}
		if !ok {
			want.name = fmt.Sprintf("op-0x%02x", i)
		}
		if op.String() != want.name || op.Format() != want.format || op.Index() != want.index {
			t.Errorf("0x%02x: got {%s %d %d}, want {%s %d %d}",
				i, op.String(), op.Format(), op.Index(), want.name, want.format, want.index)
		}
		if ok {
			continue
		}
		if _, _, err := Decode([]uint16{uint16(i), 0, 0, 0, 0}, 0); err == nil {
			t.Errorf("0x%02x: Decode accepted an unsupported opcode", i)
		}
		if _, err := Encode(&Inst{Op: op}); err == nil {
			t.Errorf("0x%02x: Encode accepted an unsupported opcode", i)
		}
	}
	ops := Opcodes()
	if len(ops) != len(mapOpcodeTable) {
		t.Fatalf("Opcodes() lists %d opcodes, want %d", len(ops), len(mapOpcodeTable))
	}
	for i, op := range ops {
		if _, ok := mapOpcodeTable[op]; !ok {
			t.Errorf("Opcodes()[%d] = 0x%02x is not supported", i, uint8(op))
		}
		if i > 0 && ops[i-1] >= op {
			t.Errorf("Opcodes() not ascending at %d", i)
		}
	}
}
