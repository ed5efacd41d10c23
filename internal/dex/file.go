// Package dex implements the Dalvik Executable (DEX) file format: an
// in-memory model, a binary reader and writer for a faithful subset of the
// on-disk format (magic dex\n035\0, adler32 checksum, SHA-1 signature,
// string/type/proto/field/method id tables, class definitions, code items
// with try/catch tables, encoded static values and the map list), and a
// Builder that interns constants and emits canonically sorted files.
package dex

import (
	"fmt"
	"strings"

	"dexlego/internal/bytecode"
)

// NoIndex is the sentinel for absent superclass or source-file references.
const NoIndex uint32 = 0xffffffff

// Access flags for classes, fields and methods (subset of the DEX spec).
const (
	AccPublic      uint32 = 0x0001
	AccPrivate     uint32 = 0x0002
	AccProtected   uint32 = 0x0004
	AccStatic      uint32 = 0x0008
	AccFinal       uint32 = 0x0010
	AccInterface   uint32 = 0x0200
	AccAbstract    uint32 = 0x0400
	AccNative      uint32 = 0x0100
	AccConstructor uint32 = 0x10000
)

// IsDirect reports whether a method with these access flags belongs in
// direct_methods (static, private and constructor methods) rather than
// virtual_methods. Only invoke-static may call a static method.
func IsDirect(flags uint32) bool { return flags&(AccStatic|AccPrivate|AccConstructor) != 0 }

// MethodTable names a class's method tables, keyed by directness.
var MethodTable = map[bool]string{true: "direct_methods", false: "virtual_methods"}

// File is an in-memory DEX file. Index fields reference the id tables,
// mirroring the on-disk structure.
type File struct {
	Strings []string
	Types   []uint32 // string index of each type descriptor
	Protos  []Proto
	Fields  []FieldID
	Methods []MethodID
	Classes []ClassDef

	// sigs memoizes SignatureOf per proto index (see BuildSignatureCache).
	sigs []string
}

// Proto is a method prototype (proto_id_item).
type Proto struct {
	Shorty uint32   // string index
	Return uint32   // type index
	Params []uint32 // type indices
}

// FieldID is a field reference (field_id_item).
type FieldID struct {
	Class uint32 // type index of the declaring class
	Type  uint32 // type index of the field type
	Name  uint32 // string index
}

// MethodID is a method reference (method_id_item).
type MethodID struct {
	Class uint32 // type index of the declaring class
	Proto uint32 // proto index
	Name  uint32 // string index
}

// ClassDef is a class definition (class_def_item plus its class_data).
type ClassDef struct {
	Class        uint32 // type index
	AccessFlags  uint32
	Superclass   uint32 // type index or NoIndex
	Interfaces   []uint32
	SourceFile   uint32 // string index or NoIndex
	StaticFields []EncodedField
	InstFields   []EncodedField
	DirectMeths  []EncodedMethod
	VirtualMeths []EncodedMethod
	StaticValues []Value
}

// NumMethods is the number of methods cd declares, direct and virtual.
func (cd *ClassDef) NumMethods() int { return len(cd.DirectMeths) + len(cd.VirtualMeths) }

// Method returns cd's i-th method, counting direct_methods first.
func (cd *ClassDef) Method(i int) *EncodedMethod {
	if i < len(cd.DirectMeths) {
		return &cd.DirectMeths[i]
	}
	return &cd.VirtualMeths[i-len(cd.DirectMeths)]
}

// EncodedField is a field declaration inside a class_data_item.
type EncodedField struct {
	Field       uint32 // field index
	AccessFlags uint32
}

// EncodedMethod is a method declaration inside a class_data_item.
type EncodedMethod struct {
	Method      uint32 // method index
	AccessFlags uint32
	Code        *Code // nil for abstract and native methods
}

// Code is a code_item: the register file shape and the 16-bit instruction
// array the interpreter walks, plus try/catch tables.
type Code struct {
	RegistersSize uint16
	InsSize       uint16
	OutsSize      uint16
	Insns         []uint16
	Tries         []Try
	// IndexFixups lists the positions of constant-pool index operands inside
	// Insns, recorded by the assembler at layout time. Builder.Finish patches
	// those positions directly when remapping provisional indices instead of
	// decoding and re-encoding the instruction stream; nil (code that did not
	// come through the assembler, e.g. read from an existing DEX) selects the
	// decode-based remap path. The writer ignores this field.
	IndexFixups []bytecode.IndexFixup
}

// Try is one try_item and its resolved catch handlers.
type Try struct {
	Start    uint32 // first covered dex_pc
	Count    uint32 // number of covered units
	Handlers []TypeAddr
	CatchAll int32 // handler dex_pc, or -1 when absent
}

// TypeAddr is one typed catch: exception type index and handler dex_pc.
type TypeAddr struct {
	Type uint32
	Addr uint32
}

// Covers reports whether the try block covers the given dex_pc.
func (t Try) Covers(pc int) bool {
	return uint32(pc) >= t.Start && uint32(pc) < t.Start+t.Count
}

// Handlers calls fn with the handler dex_pc of each exceptional successor of
// pc: for every try covering pc, in table order, its typed catches in order
// and then its catch-all. It is the one definition of exception edges that
// static readers walk beside bytecode's normal successors; a pc no try
// covers has none.
func (c *Code) Handlers(pc int, fn func(handlerPC int)) {
	for i := range c.Tries {
		t := &c.Tries[i]
		if !t.Covers(pc) {
			continue
		}
		for _, h := range t.Handlers {
			fn(int(h.Addr))
		}
		if t.CatchAll >= 0 {
			fn(int(t.CatchAll))
		}
	}
}

// Clone returns a deep copy of the code item.
func (c *Code) Clone() *Code {
	if c == nil {
		return nil
	}
	out := &Code{
		RegistersSize: c.RegistersSize,
		InsSize:       c.InsSize,
		OutsSize:      c.OutsSize,
		Insns:         append([]uint16(nil), c.Insns...),
	}
	for _, t := range c.Tries {
		nt := t
		nt.Handlers = append([]TypeAddr(nil), t.Handlers...)
		out.Tries = append(out.Tries, nt)
	}
	return out
}

// --- lookup helpers -------------------------------------------------------

// TypeName returns the descriptor of the type at index idx.
func (f *File) TypeName(idx uint32) string {
	if idx == NoIndex {
		return "<none>"
	}
	if int(idx) >= len(f.Types) {
		return fmt.Sprintf("<bad-type@%d>", idx)
	}
	return f.Strings[f.Types[idx]]
}

// String returns the string at index idx (empty on out-of-range).
func (f *File) String(idx uint32) string {
	if int(idx) >= len(f.Strings) {
		return ""
	}
	return f.Strings[idx]
}

// MethodRef describes a resolved method reference.
type MethodRef struct {
	Class     string // declaring class descriptor
	Name      string
	Signature string // e.g. (Ljava/lang/String;I)V
}

// Key returns the canonical Lcls;->name(sig) form.
func (r MethodRef) Key() string { return r.Class + "->" + r.Name + r.Signature }

func (r MethodRef) String() string { return r.Key() }

// MethodAt resolves the method_id at index idx.
func (f *File) MethodAt(idx uint32) MethodRef {
	if int(idx) >= len(f.Methods) {
		return MethodRef{Class: fmt.Sprintf("<bad-method@%d>", idx)}
	}
	m := f.Methods[idx]
	return MethodRef{
		Class:     f.TypeName(m.Class),
		Name:      f.String(m.Name),
		Signature: f.SignatureOf(m.Proto),
	}
}

// FieldRef describes a resolved field reference.
type FieldRef struct {
	Class string
	Name  string
	Type  string
}

// Key returns the canonical Lcls;->name:type form.
func (r FieldRef) Key() string { return r.Class + "->" + r.Name + ":" + r.Type }

func (r FieldRef) String() string { return r.Key() }

// FieldAt resolves the field_id at index idx.
func (f *File) FieldAt(idx uint32) FieldRef {
	if int(idx) >= len(f.Fields) {
		return FieldRef{Class: fmt.Sprintf("<bad-field@%d>", idx)}
	}
	fd := f.Fields[idx]
	return FieldRef{
		Class: f.TypeName(fd.Class),
		Name:  f.String(fd.Name),
		Type:  f.TypeName(fd.Type),
	}
}

// SignatureOf formats the proto at index idx as (params)return. Parsed
// files answer from the signature cache; method resolution calls this for
// every reference, so rebuilding the string each time shows up in the
// collection hot path.
func (f *File) SignatureOf(idx uint32) string {
	if int(idx) < len(f.sigs) {
		return f.sigs[idx]
	}
	if int(idx) >= len(f.Protos) {
		return fmt.Sprintf("<bad-proto@%d>", idx)
	}
	return f.formatSignature(f.Protos[idx])
}

func (f *File) formatSignature(p Proto) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for _, t := range p.Params {
		sb.WriteString(f.TypeName(t))
	}
	sb.WriteByte(')')
	sb.WriteString(f.TypeName(p.Return))
	return sb.String()
}

// BuildSignatureCache precomputes every proto signature. Linking resolves
// the signature of each method reference it touches, so a class loader
// calls this once before the fan-out; it must not race with concurrent
// SignatureOf calls, and repeated calls are no-ops. Parse-only consumers
// (decode benchmarks, verify passes) never pay for it.
func (f *File) BuildSignatureCache() {
	if f.sigs != nil {
		return
	}
	sigs := make([]string, len(f.Protos))
	for i, p := range f.Protos {
		sigs[i] = f.formatSignature(p)
	}
	f.sigs = sigs
}

// FindClass returns the class definition with the given descriptor, or nil.
func (f *File) FindClass(descriptor string) *ClassDef {
	for i := range f.Classes {
		if f.TypeName(f.Classes[i].Class) == descriptor {
			return &f.Classes[i]
		}
	}
	return nil
}

// FindMethod returns the encoded method with the given name and signature in
// the class with the given descriptor, or nil.
func (f *File) FindMethod(descriptor, name, signature string) *EncodedMethod {
	cd := f.FindClass(descriptor)
	if cd == nil {
		return nil
	}
	for i := range cd.NumMethods() {
		em := cd.Method(i)
		ref := f.MethodAt(em.Method)
		if ref.Name == name && (signature == "" || ref.Signature == signature) {
			return em
		}
	}
	return nil
}

// InstructionCount returns the total number of decoded instructions across
// every method body in the file. It is the metric reported in the paper's
// Tables I and VI.
func (f *File) InstructionCount() int {
	total := 0
	for ci := range f.Classes {
		cd := &f.Classes[ci]
		for mi := range cd.NumMethods() {
			m := cd.Method(mi)
			if m.Code == nil {
				continue
			}
			total += countInsns(m.Code.Insns)
		}
	}
	return total
}

// MethodCount returns the number of declared methods.
func (f *File) MethodCount() int {
	total := 0
	for ci := range f.Classes {
		total += f.Classes[ci].NumMethods()
	}
	return total
}

// ShortyOf computes the shorty descriptor for a return type and parameter
// list given as type descriptors.
func ShortyOf(ret string, params []string) string {
	var sb strings.Builder
	sb.WriteByte(shortyChar(ret))
	for _, p := range params {
		sb.WriteByte(shortyChar(p))
	}
	return sb.String()
}

func shortyChar(descriptor string) byte {
	if descriptor == "" {
		return 'V'
	}
	c := descriptor[0]
	switch c {
	case 'L', '[':
		return 'L'
	default:
		return c
	}
}
