// Package bytecode implements the subset of the Dalvik instruction set used
// by DexLego: opcode metadata, instruction decoding and encoding over 16-bit
// code-unit arrays, a label-based assembler, and a smali-style disassembler.
//
// A method body has one decoded form, Program (built by Predecode): the
// instructions a linear scan reaches, each with its dex_pc, width and
// register ceiling, a pc→instruction index, and the decode error that
// stopped the scan, if any. The interpreter and every static reader
// (verify, coverage, force-execution paths, method fingerprints, the taint
// stand-in, the disassembler) read that form; Decode is the single-
// instruction primitive beneath it. The process keeps one content-addressed
// cache of programs: the interpreter fills it (Cached), and the static
// readers read through it without filling it (Read).
//
// Opcodes carry their real Dalvik numeric values and unit formats so that the
// code arrays produced here are laid out exactly like the arrays the ART
// interpreter walks with its dex_pc counter. Wide (64-bit register pair)
// opcodes, float arithmetic and the /2addr forms are intentionally out of
// scope; see DESIGN.md.
package bytecode

import "fmt"

// Opcode is a Dalvik opcode. The numeric values match the Dalvik
// Executable format specification.
type Opcode uint8

// Supported opcodes.
const (
	OpNop             Opcode = 0x00
	OpMove            Opcode = 0x01
	OpMoveFrom16      Opcode = 0x02
	OpMoveObject      Opcode = 0x07
	OpMoveObject16    Opcode = 0x08
	OpMoveResult      Opcode = 0x0a
	OpMoveResultObj   Opcode = 0x0c
	OpMoveException   Opcode = 0x0d
	OpReturnVoid      Opcode = 0x0e
	OpReturn          Opcode = 0x0f
	OpReturnObject    Opcode = 0x11
	OpConst4          Opcode = 0x12
	OpConst16         Opcode = 0x13
	OpConst           Opcode = 0x14
	OpConstHigh16     Opcode = 0x15
	OpConstString     Opcode = 0x1a
	OpConstClass      Opcode = 0x1c
	OpCheckCast       Opcode = 0x1f
	OpInstanceOf      Opcode = 0x20
	OpArrayLength     Opcode = 0x21
	OpNewInstance     Opcode = 0x22
	OpNewArray        Opcode = 0x23
	OpThrow           Opcode = 0x27
	OpGoto            Opcode = 0x28
	OpGoto16          Opcode = 0x29
	OpGoto32          Opcode = 0x2a
	OpPackedSwitch    Opcode = 0x2b
	OpSparseSwitch    Opcode = 0x2c
	OpIfEq            Opcode = 0x32
	OpIfNe            Opcode = 0x33
	OpIfLt            Opcode = 0x34
	OpIfGe            Opcode = 0x35
	OpIfGt            Opcode = 0x36
	OpIfLe            Opcode = 0x37
	OpIfEqz           Opcode = 0x38
	OpIfNez           Opcode = 0x39
	OpIfLtz           Opcode = 0x3a
	OpIfGez           Opcode = 0x3b
	OpIfGtz           Opcode = 0x3c
	OpIfLez           Opcode = 0x3d
	OpAGet            Opcode = 0x44
	OpAGetObject      Opcode = 0x46
	OpAPut            Opcode = 0x4b
	OpAPutObject      Opcode = 0x4d
	OpIGet            Opcode = 0x52
	OpIGetObject      Opcode = 0x54
	OpIGetBoolean     Opcode = 0x55
	OpIPut            Opcode = 0x59
	OpIPutObject      Opcode = 0x5b
	OpIPutBoolean     Opcode = 0x5c
	OpSGet            Opcode = 0x60
	OpSGetObject      Opcode = 0x62
	OpSGetBoolean     Opcode = 0x63
	OpSPut            Opcode = 0x67
	OpSPutObject      Opcode = 0x69
	OpSPutBoolean     Opcode = 0x6a
	OpInvokeVirtual   Opcode = 0x6e
	OpInvokeSuper     Opcode = 0x6f
	OpInvokeDirect    Opcode = 0x70
	OpInvokeStatic    Opcode = 0x71
	OpInvokeInterface Opcode = 0x72
	OpInvokeVirtualR  Opcode = 0x74
	OpInvokeSuperR    Opcode = 0x75
	OpInvokeDirectR   Opcode = 0x76
	OpInvokeStaticR   Opcode = 0x77
	OpInvokeInterR    Opcode = 0x78
	OpNegInt          Opcode = 0x7b
	OpNotInt          Opcode = 0x7c
	OpAddInt          Opcode = 0x90
	OpSubInt          Opcode = 0x91
	OpMulInt          Opcode = 0x92
	OpDivInt          Opcode = 0x93
	OpRemInt          Opcode = 0x94
	OpAndInt          Opcode = 0x95
	OpOrInt           Opcode = 0x96
	OpXorInt          Opcode = 0x97
	OpShlInt          Opcode = 0x98
	OpShrInt          Opcode = 0x99
	OpUshrInt         Opcode = 0x9a
	OpAddIntLit16     Opcode = 0xd0
	OpAddIntLit8      Opcode = 0xd8
	OpRsubIntLit8     Opcode = 0xd9
	OpMulIntLit8      Opcode = 0xda
	OpDivIntLit8      Opcode = 0xdb
	OpRemIntLit8      Opcode = 0xdc
	OpAndIntLit8      Opcode = 0xdd
	OpOrIntLit8       Opcode = 0xde
	OpXorIntLit8      Opcode = 0xdf
	OpShlIntLit8      Opcode = 0xe0
	OpShrIntLit8      Opcode = 0xe1
)

// Format identifies the bit layout of an instruction. Names follow the
// Dalvik instruction-format specification (e.g. Fmt21c = two units, one
// register, one constant-pool index).
type Format uint8

// Instruction formats used by the supported opcodes.
const (
	Fmt10x Format = iota + 1
	Fmt12x
	Fmt11n
	Fmt11x
	Fmt10t
	Fmt20t
	Fmt22x
	Fmt21t
	Fmt21s
	Fmt21h
	Fmt21c
	Fmt23x
	Fmt22b
	Fmt22t
	Fmt22s
	Fmt22c
	Fmt30t
	Fmt31i
	Fmt31t
	Fmt35c
	Fmt3rc
)

// Width returns the fixed instruction width of a format in 16-bit units.
func (f Format) Width() int {
	switch f {
	case Fmt10x, Fmt12x, Fmt11n, Fmt11x, Fmt10t:
		return 1
	case Fmt20t, Fmt22x, Fmt21t, Fmt21s, Fmt21h, Fmt21c, Fmt23x, Fmt22b,
		Fmt22t, Fmt22s, Fmt22c:
		return 2
	case Fmt30t, Fmt31i, Fmt31t, Fmt35c, Fmt3rc:
		return 3
	default:
		return 0
	}
}

// IndexKind classifies the constant-pool table referenced by an
// instruction's index operand.
type IndexKind uint8

// Index kinds.
const (
	IndexNone IndexKind = iota
	IndexString
	IndexType
	IndexField
	IndexMethod
)

type opcodeInfo struct {
	name   string
	format Format
	index  IndexKind
}

// opcodeTable is indexed by the opcode byte, so every Opcode accessor is an
// array load instead of a map hash. Unsupported opcodes keep the zero
// opcodeInfo, whose empty name marks the slot invalid.
var opcodeTable = [256]opcodeInfo{
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

// info returns the table entry of op and whether op is supported.
func (op Opcode) info() (opcodeInfo, bool) {
	info := opcodeTable[op]
	return info, info.name != ""
}

// Valid reports whether op is a supported opcode.
func (op Opcode) Valid() bool {
	return opcodeTable[op].name != ""
}

// String returns the smali mnemonic of the opcode.
func (op Opcode) String() string {
	if info, ok := op.info(); ok {
		return info.name
	}
	return fmt.Sprintf("op-0x%02x", uint8(op))
}

// Format returns the instruction format of the opcode.
func (op Opcode) Format() Format {
	return opcodeTable[op].format
}

// Index returns the constant-pool kind referenced by the opcode's index
// operand, or IndexNone.
func (op Opcode) Index() IndexKind {
	return opcodeTable[op].index
}

// IsBranch reports whether op is a conditional branch (if-test or if-testz).
func (op Opcode) IsBranch() bool {
	return op >= OpIfEq && op <= OpIfLez
}

// IsGoto reports whether op is an unconditional goto.
func (op Opcode) IsGoto() bool {
	return op == OpGoto || op == OpGoto16 || op == OpGoto32
}

// IsSwitch reports whether op is a switch dispatch instruction.
func (op Opcode) IsSwitch() bool {
	return op == OpPackedSwitch || op == OpSparseSwitch
}

// IsInvoke reports whether op is any invoke variant.
func (op Opcode) IsInvoke() bool {
	return (op >= OpInvokeVirtual && op <= OpInvokeInterface) ||
		(op >= OpInvokeVirtualR && op <= OpInvokeInterR)
}

// IsReturn reports whether op leaves the method normally.
func (op Opcode) IsReturn() bool {
	return op == OpReturnVoid || op == OpReturn || op == OpReturnObject
}

// IsTerminator reports whether control never falls through op.
func (op Opcode) IsTerminator() bool {
	return op.IsReturn() || op.IsGoto() || op == OpThrow
}

// Opcodes returns all supported opcodes in ascending numeric order.
func Opcodes() []Opcode {
	var ops []Opcode
	for i := range opcodeTable {
		if op := Opcode(i); op.Valid() {
			ops = append(ops, op)
		}
	}
	return ops
}
