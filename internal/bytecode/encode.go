package bytecode

import "fmt"

// EncodeError describes an instruction whose operands do not fit its format.
type EncodeError struct {
	Op     Opcode
	Reason string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("bytecode: encode %s: %s", e.Op, e.Reason)
}

func encErr(op Opcode, format string, args ...any) error {
	return &EncodeError{Op: op, Reason: fmt.Sprintf(format, args...)}
}

func fitsU(v int32, bits int) bool { return v >= 0 && v < 1<<bits }
func fitsS(v int64, bits int) bool {
	return v >= -(1<<(bits-1)) && v < 1<<(bits-1)
}

// Encode encodes a single instruction to code units. Branch offsets (Off)
// must already be resolved in units relative to the instruction address.
// Switch payloads are not emitted here; see EncodePayload. in is read, never
// written, and passed by pointer because an Inst is too large to copy per
// encoded instruction.
func Encode(in *Inst) ([]uint16, error) {
	info, ok := in.Op.info()
	if !ok {
		return nil, encErr(in.Op, "unknown opcode")
	}
	op := uint16(in.Op)
	switch info.format {
	case Fmt10x:
		return []uint16{op}, nil
	case Fmt12x:
		if !fitsU(in.A, 4) || !fitsU(in.B, 4) {
			return nil, encErr(in.Op, "registers v%d, v%d exceed 4 bits", in.A, in.B)
		}
		return []uint16{op | uint16(in.A)<<8 | uint16(in.B)<<12}, nil
	case Fmt11n:
		if !fitsU(in.A, 4) {
			return nil, encErr(in.Op, "register v%d exceeds 4 bits", in.A)
		}
		if !fitsS(in.Lit, 4) {
			return nil, encErr(in.Op, "literal %d exceeds 4 bits", in.Lit)
		}
		return []uint16{op | uint16(in.A)<<8 | uint16(in.Lit&0xf)<<12}, nil
	case Fmt11x:
		if !fitsU(in.A, 8) {
			return nil, encErr(in.Op, "register v%d exceeds 8 bits", in.A)
		}
		return []uint16{op | uint16(in.A)<<8}, nil
	case Fmt10t:
		if !fitsS(int64(in.Off), 8) {
			return nil, encErr(in.Op, "offset %d exceeds 8 bits", in.Off)
		}
		return []uint16{op | uint16(uint8(in.Off))<<8}, nil
	case Fmt20t:
		if !fitsS(int64(in.Off), 16) {
			return nil, encErr(in.Op, "offset %d exceeds 16 bits", in.Off)
		}
		return []uint16{op, uint16(in.Off)}, nil
	case Fmt22x:
		if !fitsU(in.A, 8) || !fitsU(in.B, 16) {
			return nil, encErr(in.Op, "registers v%d, v%d out of range", in.A, in.B)
		}
		return []uint16{op | uint16(in.A)<<8, uint16(in.B)}, nil
	case Fmt21t:
		if !fitsU(in.A, 8) {
			return nil, encErr(in.Op, "register v%d exceeds 8 bits", in.A)
		}
		if !fitsS(int64(in.Off), 16) {
			return nil, encErr(in.Op, "offset %d exceeds 16 bits", in.Off)
		}
		return []uint16{op | uint16(in.A)<<8, uint16(in.Off)}, nil
	case Fmt21s:
		if !fitsU(in.A, 8) || !fitsS(in.Lit, 16) {
			return nil, encErr(in.Op, "operands out of range")
		}
		return []uint16{op | uint16(in.A)<<8, uint16(in.Lit)}, nil
	case Fmt21h:
		if !fitsU(in.A, 8) || in.Lit&0xffff != 0 || !fitsS(in.Lit>>16, 16) {
			return nil, encErr(in.Op, "literal %#x not a high16 value", in.Lit)
		}
		return []uint16{op | uint16(in.A)<<8, uint16(in.Lit >> 16)}, nil
	case Fmt21c:
		if !fitsU(in.A, 8) || in.Index > 0xffff {
			return nil, encErr(in.Op, "operands out of range (v%d, @%d)", in.A, in.Index)
		}
		return []uint16{op | uint16(in.A)<<8, uint16(in.Index)}, nil
	case Fmt23x:
		if !fitsU(in.A, 8) || !fitsU(in.B, 8) || !fitsU(in.C, 8) {
			return nil, encErr(in.Op, "registers out of range")
		}
		return []uint16{op | uint16(in.A)<<8, uint16(in.B) | uint16(in.C)<<8}, nil
	case Fmt22b:
		if !fitsU(in.A, 8) || !fitsU(in.B, 8) || !fitsS(in.Lit, 8) {
			return nil, encErr(in.Op, "operands out of range")
		}
		return []uint16{op | uint16(in.A)<<8, uint16(in.B) | uint16(uint8(in.Lit))<<8}, nil
	case Fmt22t:
		if !fitsU(in.A, 4) || !fitsU(in.B, 4) {
			return nil, encErr(in.Op, "registers exceed 4 bits")
		}
		if !fitsS(int64(in.Off), 16) {
			return nil, encErr(in.Op, "offset %d exceeds 16 bits", in.Off)
		}
		return []uint16{op | uint16(in.A)<<8 | uint16(in.B)<<12, uint16(in.Off)}, nil
	case Fmt22s:
		if !fitsU(in.A, 4) || !fitsU(in.B, 4) || !fitsS(in.Lit, 16) {
			return nil, encErr(in.Op, "operands out of range")
		}
		return []uint16{op | uint16(in.A)<<8 | uint16(in.B)<<12, uint16(in.Lit)}, nil
	case Fmt22c:
		if !fitsU(in.A, 4) || !fitsU(in.B, 4) || in.Index > 0xffff {
			return nil, encErr(in.Op, "operands out of range")
		}
		return []uint16{op | uint16(in.A)<<8 | uint16(in.B)<<12, uint16(in.Index)}, nil
	case Fmt30t:
		return []uint16{op, uint16(uint32(in.Off)), uint16(uint32(in.Off) >> 16)}, nil
	case Fmt31i:
		if !fitsU(in.A, 8) || !fitsS(in.Lit, 32) {
			return nil, encErr(in.Op, "operands out of range")
		}
		return []uint16{
			op | uint16(in.A)<<8,
			uint16(uint32(in.Lit)), uint16(uint32(in.Lit) >> 16),
		}, nil
	case Fmt31t:
		if !fitsU(in.A, 8) {
			return nil, encErr(in.Op, "register v%d exceeds 8 bits", in.A)
		}
		return []uint16{
			op | uint16(in.A)<<8,
			uint16(uint32(in.Off)), uint16(uint32(in.Off) >> 16),
		}, nil
	case Fmt35c:
		if len(in.Args) > 5 {
			return nil, encErr(in.Op, "%d invoke args exceed 5", len(in.Args))
		}
		if in.Index > 0xffff {
			return nil, encErr(in.Op, "method index out of range")
		}
		var nib [5]uint16
		for i, r := range in.Args {
			if r < 0 || r > 0xf {
				return nil, encErr(in.Op, "invoke arg v%d exceeds 4 bits", r)
			}
			nib[i] = uint16(r)
		}
		unit0 := op | uint16(len(in.Args))<<12 | nib[4]<<8
		unit2 := nib[0] | nib[1]<<4 | nib[2]<<8 | nib[3]<<12
		return []uint16{unit0, uint16(in.Index), unit2}, nil
	case Fmt3rc:
		if in.Index > 0xffff {
			return nil, encErr(in.Op, "method index out of range")
		}
		if len(in.Args) > 0xff {
			return nil, encErr(in.Op, "%d range args exceed 255", len(in.Args))
		}
		start := 0
		if len(in.Args) > 0 {
			start = in.Args[0]
			for i, r := range in.Args {
				if r != start+i {
					return nil, encErr(in.Op, "range args not consecutive")
				}
			}
			if start > 0xffff {
				return nil, encErr(in.Op, "range start register out of range")
			}
		}
		return []uint16{
			op | uint16(len(in.Args))<<8,
			uint16(in.Index), uint16(start),
		}, nil
	default:
		return nil, encErr(in.Op, "unhandled format")
	}
}

// EncodePayload encodes the out-of-line payload of a switch instruction.
// The returned unit slice must be placed at an even dex_pc (4-byte aligned).
func EncodePayload(in *Inst) ([]uint16, error) {
	switch in.Op {
	case OpPackedSwitch:
		if len(in.Keys) != len(in.Targets) {
			return nil, encErr(in.Op, "key/target length mismatch")
		}
		for i := 1; i < len(in.Keys); i++ {
			if in.Keys[i] != in.Keys[0]+int32(i) {
				return nil, encErr(in.Op, "keys not consecutive")
			}
		}
		out := make([]uint16, 0, 4+2*len(in.Targets))
		first := int32(0)
		if len(in.Keys) > 0 {
			first = in.Keys[0]
		}
		out = append(out, PackedSwitchPayloadIdent, uint16(len(in.Targets)),
			uint16(uint32(first)), uint16(uint32(first)>>16))
		for _, t := range in.Targets {
			out = append(out, uint16(uint32(t)), uint16(uint32(t)>>16))
		}
		return out, nil
	case OpSparseSwitch:
		if len(in.Keys) != len(in.Targets) {
			return nil, encErr(in.Op, "key/target length mismatch")
		}
		for i := 1; i < len(in.Keys); i++ {
			if in.Keys[i] <= in.Keys[i-1] {
				return nil, encErr(in.Op, "keys not strictly ascending")
			}
		}
		out := make([]uint16, 0, 2+4*len(in.Targets))
		out = append(out, SparseSwitchPayloadIdent, uint16(len(in.Targets)))
		for _, k := range in.Keys {
			out = append(out, uint16(uint32(k)), uint16(uint32(k)>>16))
		}
		for _, t := range in.Targets {
			out = append(out, uint16(uint32(t)), uint16(uint32(t)>>16))
		}
		return out, nil
	default:
		return nil, encErr(in.Op, "not a switch instruction")
	}
}
