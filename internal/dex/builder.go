package dex

import (
	"fmt"
	"sort"

	"dexlego/internal/bytecode"
)

// Builder constructs a DEX file programmatically. Strings, types, protos,
// fields and methods are interned on first use and receive provisional
// indices; Finish sorts every table into the canonical DEX order, remaps all
// cross-references — including index operands inside assembled bytecode —
// and returns the finished File.
type Builder struct {
	file      File
	stringIdx map[string]uint32
	typeIdx   map[string]uint32
	protoIdx  map[string]uint32
	fieldIdx  map[string]uint32
	methodIdx map[string]uint32
	classIdx  map[string]int
	finished  bool
	keyBuf    []byte // scratch for proto/field/method lookup keys
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		stringIdx: make(map[string]uint32),
		typeIdx:   make(map[string]uint32),
		protoIdx:  make(map[string]uint32),
		fieldIdx:  make(map[string]uint32),
		methodIdx: make(map[string]uint32),
		classIdx:  make(map[string]int),
	}
}

// String interns s and returns its provisional string index.
func (b *Builder) String(s string) uint32 {
	if idx, ok := b.stringIdx[s]; ok {
		return idx
	}
	idx := uint32(len(b.file.Strings))
	b.file.Strings = append(b.file.Strings, s)
	b.stringIdx[s] = idx
	return idx
}

// Type interns a type descriptor and returns its provisional type index.
func (b *Builder) Type(descriptor string) uint32 {
	if idx, ok := b.typeIdx[descriptor]; ok {
		return idx
	}
	s := b.String(descriptor)
	idx := uint32(len(b.file.Types))
	b.file.Types = append(b.file.Types, s)
	b.typeIdx[descriptor] = idx
	return idx
}

// Proto interns a prototype and returns its provisional proto index.
//
// Lookup keys here and in Field/Method are built in a reused scratch buffer
// and converted in the map index expression, which the compiler compiles to
// an allocation-free lookup; the key string is materialized only on first
// sight. Interning an already-known symbol — the steady state once the
// constant pool warms up — therefore allocates nothing.
func (b *Builder) Proto(ret string, params ...string) uint32 {
	b.keyBuf = appendProtoKey(b.keyBuf[:0], ret, params)
	if idx, ok := b.protoIdx[string(b.keyBuf)]; ok {
		return idx
	}
	key := string(b.keyBuf)
	p := Proto{
		Shorty: b.String(ShortyOf(ret, params)),
		Return: b.Type(ret),
	}
	for _, t := range params {
		p.Params = append(p.Params, b.Type(t))
	}
	idx := uint32(len(b.file.Protos))
	b.file.Protos = append(b.file.Protos, p)
	b.protoIdx[key] = idx
	return idx
}

// appendProtoKey appends the (params)ret signature-syntax key.
func appendProtoKey(buf []byte, ret string, params []string) []byte {
	buf = append(buf, '(')
	for _, p := range params {
		buf = append(buf, p...)
	}
	buf = append(buf, ')')
	return append(buf, ret...)
}

// Field interns a field reference and returns its provisional field index.
func (b *Builder) Field(class, name, typ string) uint32 {
	buf := append(b.keyBuf[:0], class...)
	buf = append(buf, "->"...)
	buf = append(buf, name...)
	buf = append(buf, ':')
	buf = append(buf, typ...)
	b.keyBuf = buf
	if idx, ok := b.fieldIdx[string(buf)]; ok {
		return idx
	}
	key := string(buf)
	fd := FieldID{Class: b.Type(class), Type: b.Type(typ), Name: b.String(name)}
	idx := uint32(len(b.file.Fields))
	b.file.Fields = append(b.file.Fields, fd)
	b.fieldIdx[key] = idx
	return idx
}

// Method interns a method reference and returns its provisional index.
func (b *Builder) Method(class, name, ret string, params ...string) uint32 {
	buf := append(b.keyBuf[:0], class...)
	buf = append(buf, "->"...)
	buf = append(buf, name...)
	buf = appendProtoKey(buf, ret, params)
	b.keyBuf = buf
	if idx, ok := b.methodIdx[string(buf)]; ok {
		return idx
	}
	// Materialize before Proto below reuses the scratch buffer.
	key := string(buf)
	m := MethodID{Class: b.Type(class), Proto: b.Proto(ret, params...), Name: b.String(name)}
	idx := uint32(len(b.file.Methods))
	b.file.Methods = append(b.file.Methods, m)
	b.methodIdx[key] = idx
	return idx
}

// MethodSig interns a method reference given a (params)ret signature.
//
// The interned-method key Method builds is exactly class->name+sig, so a
// warm call resolves against the method map directly without parsing the
// signature; only first-sight references look the signature up.
func (b *Builder) MethodSig(class, name, sig string) (uint32, error) {
	buf := append(b.keyBuf[:0], class...)
	buf = append(buf, "->"...)
	buf = append(buf, name...)
	buf = append(buf, sig...)
	b.keyBuf = buf
	if idx, ok := b.methodIdx[string(buf)]; ok {
		return idx, nil
	}
	s, err := ParseSignature(sig)
	if err != nil {
		return 0, err
	}
	return b.Method(class, name, s.Return, s.Params...), nil
}

// ClassBuilder accumulates members of one class definition.
type ClassBuilder struct {
	b   *Builder
	idx int
}

// Class starts (or resumes) the definition of a class. The superclass
// descriptor may be empty for java/lang/Object-level roots.
func (b *Builder) Class(descriptor string, flags uint32, super string, interfaces ...string) *ClassBuilder {
	if i, ok := b.classIdx[descriptor]; ok {
		return &ClassBuilder{b: b, idx: i}
	}
	cd := ClassDef{
		Class:       b.Type(descriptor),
		AccessFlags: flags,
		Superclass:  NoIndex,
		SourceFile:  NoIndex,
	}
	if super != "" {
		cd.Superclass = b.Type(super)
	}
	for _, ifc := range interfaces {
		cd.Interfaces = append(cd.Interfaces, b.Type(ifc))
	}
	b.classIdx[descriptor] = len(b.file.Classes)
	b.file.Classes = append(b.file.Classes, cd)
	return &ClassBuilder{b: b, idx: len(b.file.Classes) - 1}
}

func (cb *ClassBuilder) def() *ClassDef { return &cb.b.file.Classes[cb.idx] }

// Descriptor returns the class type descriptor.
func (cb *ClassBuilder) Descriptor() string {
	return cb.b.file.TypeName(cb.def().Class)
}

// SourceFile records the class source file name.
func (cb *ClassBuilder) SourceFile(name string) *ClassBuilder {
	cb.def().SourceFile = cb.b.String(name)
	return cb
}

// StaticField declares a static field with an optional initial value.
func (cb *ClassBuilder) StaticField(name, typ string, flags uint32, init *Value) *ClassBuilder {
	d := cb.def()
	idx := cb.b.Field(cb.Descriptor(), name, typ)
	d.StaticFields = append(d.StaticFields, EncodedField{Field: idx, AccessFlags: flags | AccStatic})
	v := defaultValue(typ)
	if init != nil {
		v = *init
	}
	d.StaticValues = append(d.StaticValues, v)
	return cb
}

// InstanceField declares an instance field.
func (cb *ClassBuilder) InstanceField(name, typ string, flags uint32) *ClassBuilder {
	d := cb.def()
	idx := cb.b.Field(cb.Descriptor(), name, typ)
	d.InstFields = append(d.InstFields, EncodedField{Field: idx, AccessFlags: flags})
	return cb
}

// Method declares a method; code is nil for a native or abstract one. The
// method goes into direct_methods exactly when IsDirect(flags) holds, and
// into virtual_methods otherwise.
func (cb *ClassBuilder) Method(name, ret string, params []string, flags uint32, code *Code) *ClassBuilder {
	d := cb.def()
	em := EncodedMethod{Method: cb.b.Method(cb.Descriptor(), name, ret, params...), AccessFlags: flags, Code: code}
	if IsDirect(flags) {
		d.DirectMeths = append(d.DirectMeths, em)
	} else {
		d.VirtualMeths = append(d.VirtualMeths, em)
	}
	return cb
}

func defaultValue(typ string) Value {
	switch typ {
	case "Z":
		return Value{Kind: ValueBoolean}
	case "B":
		return Value{Kind: ValueByte}
	case "S":
		return Value{Kind: ValueShort}
	case "I", "C":
		return Value{Kind: ValueInt}
	case "J":
		return Value{Kind: ValueLong}
	default:
		return NullValue()
	}
}

// Finish canonicalizes the file: sorts every id table into the order the
// DEX specification requires, remaps all cross-references including
// bytecode index operands, topologically orders class definitions, and
// returns the File. The Builder must not be reused afterwards.
func (b *Builder) Finish() (*File, error) {
	if b.finished {
		return nil, fmt.Errorf("dex: builder already finished")
	}
	b.finished = true
	f := &b.file

	stringMap := sortPerm(len(f.Strings), func(i, j int) bool {
		return f.Strings[i] < f.Strings[j]
	})
	applyPermStrings(f, stringMap)

	if stringMap != nil {
		for i := range f.Types {
			f.Types[i] = stringMap[f.Types[i]]
		}
	}
	typeMap := sortPerm(len(f.Types), func(i, j int) bool {
		return f.Types[i] < f.Types[j]
	})
	applyPermU32(f.Types, typeMap)

	if stringMap != nil || typeMap != nil {
		for i := range f.Protos {
			p := &f.Protos[i]
			p.Shorty = permAt(stringMap, p.Shorty)
			p.Return = permAt(typeMap, p.Return)
			for j := range p.Params {
				p.Params[j] = permAt(typeMap, p.Params[j])
			}
		}
	}
	protoMap := sortPerm(len(f.Protos), func(i, j int) bool {
		pi, pj := f.Protos[i], f.Protos[j]
		if pi.Return != pj.Return {
			return pi.Return < pj.Return
		}
		for k := 0; k < len(pi.Params) && k < len(pj.Params); k++ {
			if pi.Params[k] != pj.Params[k] {
				return pi.Params[k] < pj.Params[k]
			}
		}
		return len(pi.Params) < len(pj.Params)
	})
	applyPermProtos(f, protoMap)

	if stringMap != nil || typeMap != nil {
		for i := range f.Fields {
			fd := &f.Fields[i]
			fd.Class = permAt(typeMap, fd.Class)
			fd.Type = permAt(typeMap, fd.Type)
			fd.Name = permAt(stringMap, fd.Name)
		}
	}
	fieldMap := sortPerm(len(f.Fields), func(i, j int) bool {
		fi, fj := f.Fields[i], f.Fields[j]
		if fi.Class != fj.Class {
			return fi.Class < fj.Class
		}
		if fi.Name != fj.Name {
			return fi.Name < fj.Name
		}
		return fi.Type < fj.Type
	})
	applyPermFields(f, fieldMap)

	if stringMap != nil || typeMap != nil || protoMap != nil {
		for i := range f.Methods {
			m := &f.Methods[i]
			m.Class = permAt(typeMap, m.Class)
			m.Proto = permAt(protoMap, m.Proto)
			m.Name = permAt(stringMap, m.Name)
		}
	}
	methodMap := sortPerm(len(f.Methods), func(i, j int) bool {
		mi, mj := f.Methods[i], f.Methods[j]
		if mi.Class != mj.Class {
			return mi.Class < mj.Class
		}
		if mi.Name != mj.Name {
			return mi.Name < mj.Name
		}
		return mi.Proto < mj.Proto
	})
	applyPermMethods(f, methodMap)

	// Rewrite class definitions with the new indices. Member lists are
	// sorted even under identity maps: declaration order is not index order.
	for ci := range f.Classes {
		cd := &f.Classes[ci]
		cd.Class = permAt(typeMap, cd.Class)
		if cd.Superclass != NoIndex {
			cd.Superclass = permAt(typeMap, cd.Superclass)
		}
		if cd.SourceFile != NoIndex {
			cd.SourceFile = permAt(stringMap, cd.SourceFile)
		}
		for i := range cd.Interfaces {
			cd.Interfaces[i] = permAt(typeMap, cd.Interfaces[i])
		}
		// Sort members by new index; static values track their fields.
		sortFieldsWithValues(cd, fieldMap)
		for i := range cd.InstFields {
			cd.InstFields[i].Field = permAt(fieldMap, cd.InstFields[i].Field)
		}
		sort.Slice(cd.InstFields, func(i, j int) bool {
			return cd.InstFields[i].Field < cd.InstFields[j].Field
		})
		if methodMap != nil {
			for i := range cd.NumMethods() {
				em := cd.Method(i)
				em.Method = methodMap[em.Method]
			}
		}
		sort.Slice(cd.DirectMeths, func(i, j int) bool {
			return cd.DirectMeths[i].Method < cd.DirectMeths[j].Method
		})
		sort.Slice(cd.VirtualMeths, func(i, j int) bool {
			return cd.VirtualMeths[i].Method < cd.VirtualMeths[j].Method
		})
		// Remap encoded static values that reference strings or types.
		for i := range cd.StaticValues {
			v := &cd.StaticValues[i]
			switch v.Kind {
			case ValueString:
				v.Index = permAt(stringMap, v.Index)
			case ValueType:
				v.Index = permAt(typeMap, v.Index)
			}
		}
	}

	// Rewrite bytecode index operands. When every table was already in
	// canonical order (cache-warm rebuilds) there is nothing to rewrite and
	// the decode/re-encode pass over every method body is skipped entirely.
	if stringMap != nil || typeMap != nil || fieldMap != nil || methodMap != nil {
		if err := remapCode(f, stringMap, typeMap, fieldMap, methodMap); err != nil {
			return nil, err
		}
	}

	if err := topoSortClasses(f); err != nil {
		return nil, err
	}
	return f, nil
}

// sortPerm returns a mapping old index → new index induced by sorting
// indices [0,n) with the given less function over *old* indices. A nil
// result means the input is already sorted and the permutation is the
// identity — callers skip their rewrite passes on nil (the common case on
// cache-warm rebuilds, where symbols were interned in canonical order).
//
// Interned pools are built from sorted runs: symbols arrive grouped by the
// class or method that interned them, and within a group largely in
// canonical order already. sortPerm therefore detects the ascending runs of
// the interned sequence and merges them bottom-up (a natural merge sort)
// instead of handing the whole table to a comparison sort that ignores the
// pre-existing order. One run is the identity; few runs cost ~n compares
// per level over log(runs) levels; fully random input degrades gracefully
// to an ordinary mergesort.
func sortPerm(n int, less func(i, j int) bool) []uint32 {
	if n < 2 {
		return nil
	}
	// Run boundaries: bounds[k]..bounds[k+1] is the k-th ascending run.
	bounds := []int{0}
	for i := 1; i < n; i++ {
		if less(i, i-1) {
			bounds = append(bounds, i)
		}
	}
	if len(bounds) == 1 {
		return nil
	}
	bounds = append(bounds, n)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	buf := make([]int32, n)
	for len(bounds) > 2 {
		merged := bounds[:1]
		for k := 0; k+2 < len(bounds); k += 2 {
			lo, mid, hi := bounds[k], bounds[k+1], bounds[k+2]
			mergeRuns(order, buf, lo, mid, hi, less)
			merged = append(merged, hi)
		}
		if len(bounds)%2 == 0 { // odd run count: last run carries over
			merged = append(merged, bounds[len(bounds)-1])
		}
		bounds = merged
	}
	perm := make([]uint32, n)
	for newIdx, oldIdx := range order {
		perm[oldIdx] = uint32(newIdx)
	}
	return perm
}

// mergeRuns merges the sorted runs order[lo:mid] and order[mid:hi] in place
// (through buf), comparing original indices with less. Stable: the left run
// wins ties, matching what a stable comparison sort would produce.
func mergeRuns(order, buf []int32, lo, mid, hi int, less func(i, j int) bool) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if less(int(order[j]), int(order[i])) {
			buf[k] = order[j]
			j++
		} else {
			buf[k] = order[i]
			i++
		}
		k++
	}
	copy(buf[k:], order[i:mid])
	copy(buf[k+mid-i:hi], order[j:hi])
	copy(order[lo:hi], buf[lo:hi])
}

// permAt resolves an index through a permutation, treating nil as identity.
func permAt(perm []uint32, i uint32) uint32 {
	if perm == nil {
		return i
	}
	return perm[i]
}

func applyPermStrings(f *File, perm []uint32) {
	if perm == nil {
		return
	}
	out := make([]string, len(f.Strings))
	for old, s := range f.Strings {
		out[perm[old]] = s
	}
	f.Strings = out
}

func applyPermU32(xs []uint32, perm []uint32) {
	if perm == nil {
		return
	}
	out := make([]uint32, len(xs))
	for old, v := range xs {
		out[perm[old]] = v
	}
	copy(xs, out)
}

func applyPermProtos(f *File, perm []uint32) {
	if perm == nil {
		return
	}
	out := make([]Proto, len(f.Protos))
	for old, p := range f.Protos {
		out[perm[old]] = p
	}
	f.Protos = out
}

func applyPermFields(f *File, perm []uint32) {
	if perm == nil {
		return
	}
	out := make([]FieldID, len(f.Fields))
	for old, fd := range f.Fields {
		out[perm[old]] = fd
	}
	f.Fields = out
}

func applyPermMethods(f *File, perm []uint32) {
	if perm == nil {
		return
	}
	out := make([]MethodID, len(f.Methods))
	for old, m := range f.Methods {
		out[perm[old]] = m
	}
	f.Methods = out
}

func sortFieldsWithValues(cd *ClassDef, fieldMap []uint32) {
	type pair struct {
		f EncodedField
		v Value
	}
	pairs := make([]pair, len(cd.StaticFields))
	for i := range cd.StaticFields {
		pairs[i].f = cd.StaticFields[i]
		pairs[i].f.Field = permAt(fieldMap, pairs[i].f.Field)
		if i < len(cd.StaticValues) {
			pairs[i].v = cd.StaticValues[i]
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].f.Field < pairs[j].f.Field })
	for i := range pairs {
		cd.StaticFields[i] = pairs[i].f
		if i < len(cd.StaticValues) {
			cd.StaticValues[i] = pairs[i].v
		}
	}
}

// remapCode rewrites every index-bearing instruction of every method body,
// in class and method order, and returns the first error.
func remapCode(f *File, stringMap, typeMap, fieldMap, methodMap []uint32) error {
	// By index kind; a nil permutation is the identity.
	maps := [...][]uint32{
		bytecode.IndexString: stringMap,
		bytecode.IndexType:   typeMap,
		bytecode.IndexField:  fieldMap,
		bytecode.IndexMethod: methodMap,
	}
	for ci := range f.Classes {
		cd := &f.Classes[ci]
		for mi := range cd.NumMethods() {
			em := cd.Method(mi)
			if em.Code == nil {
				continue
			}
			if err := remapBody(f, em.Code, em.Method, &maps); err != nil {
				return err
			}
		}
	}
	return nil
}

// remapBody rewrites the index operands and catch types of one body.
func remapBody(f *File, code *Code, method uint32, maps *[bytecode.IndexMethod + 1][]uint32) error {
	if typeMap := maps[bytecode.IndexType]; typeMap != nil {
		for ti := range code.Tries {
			for hi := range code.Tries[ti].Handlers {
				h := &code.Tries[ti].Handlers[hi]
				if int(h.Type) >= len(typeMap) {
					return fmt.Errorf("dex: remap: catch type %d out of range", h.Type)
				}
				h.Type = typeMap[h.Type]
			}
		}
	}
	// Fast path: the assembler recorded where every index operand sits
	// (always one 16-bit code unit past the opcode for the formats it
	// emits), so patch those units in place with no decode/re-encode.
	if code.IndexFixups != nil {
		for _, fx := range code.IndexFixups {
			m := maps[fx.Kind]
			if m == nil {
				continue // identity permutation: operand already final
			}
			at := int(fx.PC) + 1
			if at >= len(code.Insns) {
				return fmt.Errorf("dex: remap: fixup pc %d out of range", fx.PC)
			}
			old := uint32(code.Insns[at])
			if int(old) >= len(m) {
				return fmt.Errorf("dex: remap: index %d out of range at pc %d", old, fx.PC)
			}
			idx := m[old]
			if idx > 0xffff {
				return fmt.Errorf("dex: remap: index %d exceeds 16 bits at pc %d", idx, fx.PC)
			}
			code.Insns[at] = uint16(idx)
		}
		return nil
	}
	prog := bytecode.Read(code.Insns)
	if err := prog.Err(); err != nil {
		return fmt.Errorf("dex: remap %s: %w", f.MethodAt(method).Key(), err)
	}
	for _, p := range prog.Insts() {
		m := maps[p.Op.Index()]
		if m == nil {
			continue // no index operand, or an identity permutation
		}
		if int(p.Index) >= len(m) {
			return fmt.Errorf("dex: remap: index %d out of range at pc %d",
				p.Index, p.PC)
		}
		in := p.Inst
		in.Index = m[p.Index]
		units, err := bytecode.Encode(&in)
		if err != nil {
			return fmt.Errorf("dex: remap re-encode: %w", err)
		}
		copy(code.Insns[p.PC:], units)
	}
	return nil
}

// topoSortClasses orders class definitions so that superclasses and
// implemented interfaces defined in this file come first, as the DEX
// specification requires.
func topoSortClasses(f *File) error {
	byType := make(map[uint32]int, len(f.Classes))
	for i := range f.Classes {
		if _, dup := byType[f.Classes[i].Class]; dup {
			return fmt.Errorf("dex: duplicate class %s", f.TypeName(f.Classes[i].Class))
		}
		byType[f.Classes[i].Class] = i
	}
	// Fast path: already topologically ordered (every in-file dependency
	// precedes its dependent), which a warm rebuild hits every time.
	ordered := true
check:
	for i := range f.Classes {
		deps := f.Classes[i].Interfaces
		if s := f.Classes[i].Superclass; s != NoIndex {
			if j, ok := byType[s]; ok && j >= i {
				ordered = false
				break
			}
		}
		for _, d := range deps {
			if j, ok := byType[d]; ok && j >= i {
				ordered = false
				break check
			}
		}
	}
	if ordered {
		return nil
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(f.Classes))
	order := make([]int, 0, len(f.Classes))
	var visit func(i int) error
	visit = func(i int) error {
		switch color[i] {
		case gray:
			return fmt.Errorf("dex: class hierarchy cycle involving %s",
				f.TypeName(f.Classes[i].Class))
		case black:
			return nil
		}
		color[i] = gray
		deps := make([]uint32, 0, 1+len(f.Classes[i].Interfaces))
		if f.Classes[i].Superclass != NoIndex {
			deps = append(deps, f.Classes[i].Superclass)
		}
		deps = append(deps, f.Classes[i].Interfaces...)
		for _, d := range deps {
			if j, ok := byType[d]; ok {
				if err := visit(j); err != nil {
					return err
				}
			}
		}
		color[i] = black
		order = append(order, i)
		return nil
	}
	for i := range f.Classes {
		if err := visit(i); err != nil {
			return err
		}
	}
	out := make([]ClassDef, len(f.Classes))
	for pos, idx := range order {
		out[pos] = f.Classes[idx]
	}
	f.Classes = out
	return nil
}
