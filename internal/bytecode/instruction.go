package bytecode

import "fmt"

// Payload identifier units. A payload pseudo-instruction starts with one of
// these units; its low byte is 0x00 (nop), which is how linear scanners that
// accidentally reach a payload survive in real ART.
const (
	PackedSwitchPayloadIdent uint16 = 0x0100
	SparseSwitchPayloadIdent uint16 = 0x0200
)

// Inst is one decoded Dalvik instruction.
//
// Register operands live in A, B and C following the format field names
// (vA, vB, vC). Literal operands are in Lit, constant-pool indices in Index,
// and branch targets in Off as a unit offset relative to the address of this
// instruction. Invoke arguments are in Args. Switch instructions carry their
// payload case tables in Keys/Targets (targets relative to the switch
// opcode), so an Inst is self-contained and can be re-encoded elsewhere.
type Inst struct {
	Op      Opcode
	A, B, C int32
	Index   uint32
	Lit     int64
	Off     int32
	Args    []int
	Keys    []int32
	Targets []int32
}

// Width returns the width of the instruction in 16-bit code units, not
// counting any out-of-line switch payload. Like PayloadWidth it takes a
// pointer: the assembler and the reassembler call it per instruction, and a
// value receiver copies the whole Inst there.
func (in *Inst) Width() int {
	return in.Op.Format().Width()
}

// PayloadWidth returns the number of units of the out-of-line payload for
// switch instructions, or 0. The case count comes from Keys when Targets
// are not yet resolved (assembly time) — the two always agree once encoded.
func (in *Inst) PayloadWidth() int {
	n := len(in.Targets)
	if len(in.Keys) > n {
		n = len(in.Keys)
	}
	switch in.Op {
	case OpPackedSwitch:
		return 4 + 2*n
	case OpSparseSwitch:
		return 2 + 4*n
	default:
		return 0
	}
}

// Equal reports whether two instructions are identical, including operands
// and switch tables. It is the SameIns predicate of the paper's Algorithm 1.
// Both sides are pointers: the collector calls it on every executed
// instruction, and an Inst is too large to copy there. The same pointer is
// equal without a field compare, which is the collector's common case: its
// entries point at the predecoded instructions the interpreter hands it.
func (in *Inst) Equal(other *Inst) bool {
	if in == other {
		return true
	}
	if in.Op != other.Op || in.A != other.A || in.B != other.B ||
		in.C != other.C || in.Index != other.Index || in.Lit != other.Lit ||
		in.Off != other.Off {
		return false
	}
	if len(in.Args) != len(other.Args) || len(in.Keys) != len(other.Keys) ||
		len(in.Targets) != len(other.Targets) {
		return false
	}
	for i, a := range in.Args {
		if a != other.Args[i] {
			return false
		}
	}
	for i, k := range in.Keys {
		if k != other.Keys[i] {
			return false
		}
	}
	for i, t := range in.Targets {
		if t != other.Targets[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the instruction.
func (in Inst) Clone() Inst {
	out := in
	if in.Args != nil {
		out.Args = append([]int(nil), in.Args...)
	}
	if in.Keys != nil {
		out.Keys = append([]int32(nil), in.Keys...)
	}
	if in.Targets != nil {
		out.Targets = append([]int32(nil), in.Targets...)
	}
	return out
}

func (in Inst) String() string {
	return disasmInst(in, nil)
}

// DecodeError describes a malformed instruction stream.
type DecodeError struct {
	PC     int
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("bytecode: decode at pc %d: %s", e.PC, e.Reason)
}

// PayloadAt reports whether the unit at pc begins a switch payload and, if
// so, the payload width in units. Scanners use it to skip data regions.
func PayloadAt(insns []uint16, pc int) (width int, ok bool) {
	if pc < 0 || pc >= len(insns) {
		return 0, false
	}
	switch insns[pc] {
	case PackedSwitchPayloadIdent:
		if pc+1 >= len(insns) {
			return 0, false
		}
		return 4 + 2*int(insns[pc+1]), true
	case SparseSwitchPayloadIdent:
		if pc+1 >= len(insns) {
			return 0, false
		}
		return 2 + 4*int(insns[pc+1]), true
	default:
		return 0, false
	}
}
