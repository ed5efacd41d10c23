package bytecode

// Decode decodes the instruction starting at unit index pc of insns and
// returns it together with its width in units. Switch instructions have
// their payload tables resolved and inlined into the returned Inst.
func Decode(insns []uint16, pc int) (Inst, int, error) {
	var in Inst
	w, err := decodeInto(insns, pc, &in)
	if err != nil {
		return Inst{}, 0, err
	}
	return in, w, nil
}

// decodeInto is Decode writing the instruction into *in, so a scan that
// reuses one Inst (walk) copies nothing per instruction. *in is undefined
// after an error.
func decodeInto(insns []uint16, pc int, in *Inst) (int, error) {
	if pc < 0 || pc >= len(insns) {
		return 0, &DecodeError{PC: pc, Reason: "pc out of bounds"}
	}
	unit := insns[pc]
	op := Opcode(unit & 0xff)
	hi := int32(unit >> 8)
	info, ok := op.info()
	if !ok {
		return 0, &DecodeError{PC: pc, Reason: "unknown opcode " + op.String()}
	}
	w := info.format.Width()
	if pc+w > len(insns) {
		return 0, &DecodeError{PC: pc, Reason: "truncated instruction"}
	}
	*in = Inst{Op: op}
	switch info.format {
	case Fmt10x:
		// Reject accidental decodes of payload data: payload idents share
		// the nop low byte.
		if op == OpNop && (unit == PackedSwitchPayloadIdent || unit == SparseSwitchPayloadIdent) {
			return 0, &DecodeError{PC: pc, Reason: "pc points into switch payload"}
		}
	case Fmt12x:
		in.A = hi & 0xf
		in.B = hi >> 4
	case Fmt11n:
		in.A = hi & 0xf
		in.Lit = int64(int8(hi>>4<<4) >> 4) // sign-extend 4-bit nibble
	case Fmt11x:
		in.A = hi
	case Fmt10t:
		in.Off = int32(int8(hi))
	case Fmt20t:
		in.Off = int32(int16(insns[pc+1]))
	case Fmt22x:
		in.A = hi
		in.B = int32(insns[pc+1])
	case Fmt21t:
		in.A = hi
		in.Off = int32(int16(insns[pc+1]))
	case Fmt21s:
		in.A = hi
		in.Lit = int64(int16(insns[pc+1]))
	case Fmt21h:
		in.A = hi
		in.Lit = int64(int16(insns[pc+1])) << 16
	case Fmt21c:
		in.A = hi
		in.Index = uint32(insns[pc+1])
	case Fmt23x:
		in.A = hi
		in.B = int32(insns[pc+1] & 0xff)
		in.C = int32(insns[pc+1] >> 8)
	case Fmt22b:
		in.A = hi
		in.B = int32(insns[pc+1] & 0xff)
		in.Lit = int64(int8(insns[pc+1] >> 8))
	case Fmt22t:
		in.A = hi & 0xf
		in.B = hi >> 4
		in.Off = int32(int16(insns[pc+1]))
	case Fmt22s:
		in.A = hi & 0xf
		in.B = hi >> 4
		in.Lit = int64(int16(insns[pc+1]))
	case Fmt22c:
		in.A = hi & 0xf
		in.B = hi >> 4
		in.Index = uint32(insns[pc+1])
	case Fmt30t:
		in.Off = int32(uint32(insns[pc+1]) | uint32(insns[pc+2])<<16)
	case Fmt31i:
		in.Lit = int64(int32(uint32(insns[pc+1]) | uint32(insns[pc+2])<<16))
		in.A = hi
	case Fmt31t:
		in.A = hi
		in.Off = int32(uint32(insns[pc+1]) | uint32(insns[pc+2])<<16)
		if err := decodeSwitchPayload(insns, pc, in); err != nil {
			return 0, err
		}
	case Fmt35c:
		count := hi >> 4
		g := int(hi & 0xf)
		in.Index = uint32(insns[pc+1])
		regs := insns[pc+2]
		all := []int{
			int(regs & 0xf), int(regs >> 4 & 0xf),
			int(regs >> 8 & 0xf), int(regs >> 12 & 0xf), g,
		}
		if count > 5 {
			return 0, &DecodeError{PC: pc, Reason: "invoke arg count > 5"}
		}
		in.Args = all[:count]
		in.A = count
	case Fmt3rc:
		count := int(hi)
		in.Index = uint32(insns[pc+1])
		start := int(insns[pc+2])
		in.Args = make([]int, count)
		for i := range in.Args {
			in.Args[i] = start + i
		}
		in.A = int32(count)
	default:
		return 0, &DecodeError{PC: pc, Reason: "unhandled format"}
	}
	return w, nil
}

func decodeSwitchPayload(insns []uint16, pc int, in *Inst) error {
	ppc := pc + int(in.Off)
	if ppc < 0 || ppc+2 > len(insns) {
		return &DecodeError{PC: pc, Reason: "switch payload offset out of bounds"}
	}
	switch in.Op {
	case OpPackedSwitch:
		if insns[ppc] != PackedSwitchPayloadIdent {
			return &DecodeError{PC: pc, Reason: "bad packed-switch payload ident"}
		}
		size := int(insns[ppc+1])
		if ppc+4+2*size > len(insns) {
			return &DecodeError{PC: pc, Reason: "truncated packed-switch payload"}
		}
		firstKey := int32(uint32(insns[ppc+2]) | uint32(insns[ppc+3])<<16)
		in.Keys = make([]int32, size)
		in.Targets = make([]int32, size)
		for i := 0; i < size; i++ {
			in.Keys[i] = firstKey + int32(i)
			in.Targets[i] = int32(uint32(insns[ppc+4+2*i]) | uint32(insns[ppc+5+2*i])<<16)
		}
	case OpSparseSwitch:
		if insns[ppc] != SparseSwitchPayloadIdent {
			return &DecodeError{PC: pc, Reason: "bad sparse-switch payload ident"}
		}
		size := int(insns[ppc+1])
		if ppc+2+4*size > len(insns) {
			return &DecodeError{PC: pc, Reason: "truncated sparse-switch payload"}
		}
		in.Keys = make([]int32, size)
		in.Targets = make([]int32, size)
		for i := 0; i < size; i++ {
			in.Keys[i] = int32(uint32(insns[ppc+2+2*i]) | uint32(insns[ppc+3+2*i])<<16)
		}
		base := ppc + 2 + 2*size
		for i := 0; i < size; i++ {
			in.Targets[i] = int32(uint32(insns[base+2*i]) | uint32(insns[base+1+2*i])<<16)
		}
	}
	return nil
}
