package bytecode

import (
	"fmt"
	"strings"
)

// Resolver maps constant-pool indices to human-readable names for
// disassembly. A nil Resolver prints raw indices.
type Resolver func(kind IndexKind, idx uint32) string

func disasmInst(in Inst, r Resolver) string {
	info, ok := in.Op.info()
	if !ok {
		return fmt.Sprintf(".unknown 0x%02x", uint8(in.Op))
	}
	name := info.name
	idx := func() string {
		if r != nil {
			return r(info.index, in.Index)
		}
		kinds := map[IndexKind]string{
			IndexString: "string", IndexType: "type",
			IndexField: "field", IndexMethod: "method",
		}
		return fmt.Sprintf("%s@%d", kinds[info.index], in.Index)
	}
	switch info.format {
	case Fmt10x:
		return name
	case Fmt12x:
		return fmt.Sprintf("%s v%d, v%d", name, in.A, in.B)
	case Fmt11n:
		return fmt.Sprintf("%s v%d, #%d", name, in.A, in.Lit)
	case Fmt11x:
		return fmt.Sprintf("%s v%d", name, in.A)
	case Fmt10t, Fmt20t, Fmt30t:
		return fmt.Sprintf("%s %+d", name, in.Off)
	case Fmt22x:
		return fmt.Sprintf("%s v%d, v%d", name, in.A, in.B)
	case Fmt21t:
		return fmt.Sprintf("%s v%d, %+d", name, in.A, in.Off)
	case Fmt21s, Fmt21h, Fmt31i:
		return fmt.Sprintf("%s v%d, #%d", name, in.A, in.Lit)
	case Fmt21c:
		return fmt.Sprintf("%s v%d, %s", name, in.A, idx())
	case Fmt23x:
		return fmt.Sprintf("%s v%d, v%d, v%d", name, in.A, in.B, in.C)
	case Fmt22b, Fmt22s:
		return fmt.Sprintf("%s v%d, v%d, #%d", name, in.A, in.B, in.Lit)
	case Fmt22t:
		return fmt.Sprintf("%s v%d, v%d, %+d", name, in.A, in.B, in.Off)
	case Fmt22c:
		return fmt.Sprintf("%s v%d, v%d, %s", name, in.A, in.B, idx())
	case Fmt31t:
		cases := make([]string, len(in.Keys))
		for i := range in.Keys {
			cases[i] = fmt.Sprintf("%d->%+d", in.Keys[i], in.Targets[i])
		}
		return fmt.Sprintf("%s v%d, {%s}", name, in.A, strings.Join(cases, ", "))
	case Fmt35c, Fmt3rc:
		regs := make([]string, len(in.Args))
		for i, a := range in.Args {
			regs[i] = fmt.Sprintf("v%d", a)
		}
		return fmt.Sprintf("%s {%s}, %s", name, strings.Join(regs, ", "), idx())
	default:
		return name
	}
}

// Disassemble renders a method body as smali-style lines, one per
// instruction, prefixed with its dex_pc. Switch payload regions are skipped.
func Disassemble(insns []uint16, r Resolver) ([]string, error) {
	p := Read(insns)
	if err := p.Err(); err != nil {
		return nil, err
	}
	lines := make([]string, len(p.Insts()))
	for i, d := range p.Insts() {
		lines[i] = fmt.Sprintf("%04x: %s", d.PC, disasmInst(d.Inst, r))
	}
	return lines, nil
}
