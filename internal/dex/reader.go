package dex

import (
	"crypto/sha1"
	"crypto/subtle"
	"errors"
	"fmt"
	"hash/adler32"
	"unsafe"
)

// FormatError describes a malformed DEX file.
type FormatError struct {
	Offset int
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("dex: invalid file at offset %#x: %s", e.Offset, e.Reason)
}

// ErrChecksum is returned when the header checksum or signature does not
// match the file contents.
var ErrChecksum = errors.New("dex: checksum or signature mismatch")

// MaxInsns is the largest instruction array, in code units, the reader
// accepts in a code item: a defensive cap against hostile size fields.
// No dex_pc of a loaded method reaches it.
const MaxInsns = 1 << 24

type byteReader struct {
	buf []byte
	// shared lets string payloads alias buf instead of copying (ReadShared).
	shared bool
	// insnArena batches the []uint16 instruction allocations of all code
	// items into chunks, one allocation per chunk instead of per method.
	insnArena []uint16
	// seenCode tracks code-item offsets already aliased into buf, so a
	// duplicate code_off falls back to a private copy (see insnsAt).
	seenCode map[int]bool
}

// hostLittleEndian reports whether uint16 values have the DEX file's byte
// order in memory, making a zero-copy view of the instruction stream valid.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// insnsAt returns the code item's []uint16 instruction view. On a shared
// little-endian read it aliases buf directly — the same ownership rule as
// shared strings — saving the dominant per-method decode allocation. No
// later consumer writes a File's instruction arrays: the runtime links
// methods onto them and copies only when code is tampered
// (Env.TamperMethod), and the packer copies out first, so File-level
// instruction arrays only see in-place writes from index remapping, which
// each File performs on its own buffer. Two code items at the same offset
// must still never share backing (a write through one method would leak
// into the other), so only the first occurrence of an offset is aliased.
func (r *byteReader) insnsAt(start, n int) []uint16 {
	if r.shared && hostLittleEndian && n > 0 &&
		uintptr(unsafe.Pointer(&r.buf[start]))%2 == 0 {
		if r.seenCode == nil {
			r.seenCode = make(map[int]bool)
		}
		if !r.seenCode[start] {
			r.seenCode[start] = true
			return unsafe.Slice((*uint16)(unsafe.Pointer(&r.buf[start])), n)
		}
	}
	s := r.insnSlice(n)
	raw := r.buf[start : start+2*n]
	for i := range s {
		s[i] = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
	}
	return s
}

// insnSlice returns a zeroed []uint16 of length n carved from the arena.
// Slices never overlap, so per-method in-place mutation (self-modifying
// code under the runtime) stays confined to its own method.
func (r *byteReader) insnSlice(n int) []uint16 {
	const chunk = 4096
	if n >= chunk {
		return make([]uint16, n)
	}
	if len(r.insnArena) < n {
		r.insnArena = make([]uint16, chunk)
	}
	s := r.insnArena[:n:n]
	r.insnArena = r.insnArena[n:]
	return s
}

func (r *byteReader) u16(off int) (uint16, error) {
	if off < 0 || off+2 > len(r.buf) {
		return 0, &FormatError{Offset: off, Reason: "truncated u16"}
	}
	return uint16(r.buf[off]) | uint16(r.buf[off+1])<<8, nil
}

func (r *byteReader) u32(off int) (uint32, error) {
	if off < 0 || off+4 > len(r.buf) {
		return 0, &FormatError{Offset: off, Reason: "truncated u32"}
	}
	return uint32(r.buf[off]) | uint32(r.buf[off+1])<<8 |
		uint32(r.buf[off+2])<<16 | uint32(r.buf[off+3])<<24, nil
}

// Read parses a DEX binary produced by Write (or any conforming subset of
// the real format) back into a File. The header checksum and signature are
// verified. Every payload is copied out of buf, so the caller may reuse or
// mutate buf afterwards.
func Read(buf []byte) (*File, error) {
	return read(buf, false)
}

// ReadShared parses like Read but lets payloads (string data) alias buf
// instead of copying, eliminating the dominant decode allocations.
// Ownership rule: the caller must not mutate buf for the lifetime of the
// returned File or of any File derived from it. Use it where the buffer is
// immutable by construction — e.g. on the fresh copy apk.Dex returns, or on
// an encode result that is only verified and then dropped.
func ReadShared(buf []byte) (*File, error) {
	return read(buf, true)
}

func read(buf []byte, shared bool) (*File, error) {
	if len(buf) < headerSize {
		return nil, &FormatError{Offset: 0, Reason: "file smaller than header"}
	}
	if string(buf[:8]) != Magic {
		return nil, &FormatError{Offset: 0, Reason: "bad magic"}
	}
	r := &byteReader{buf: buf, shared: shared}
	checksum, _ := r.u32(8)
	if adler32.Checksum(buf[12:]) != checksum {
		return nil, ErrChecksum
	}
	sig := sha1.Sum(buf[32:])
	if subtle.ConstantTimeCompare(sig[:], buf[12:32]) != 1 {
		return nil, ErrChecksum
	}
	fileSize, _ := r.u32(32)
	if int(fileSize) != len(buf) {
		return nil, &FormatError{Offset: 32, Reason: "file size mismatch"}
	}
	hdrSize, _ := r.u32(36)
	if hdrSize != headerSize {
		return nil, &FormatError{Offset: 36, Reason: "unexpected header size"}
	}
	endian, _ := r.u32(40)
	if endian != endianTag {
		return nil, &FormatError{Offset: 40, Reason: "unsupported endianness"}
	}

	stringIDsSize, _ := r.u32(56)
	stringIDsOff, _ := r.u32(60)
	typeIDsSize, _ := r.u32(64)
	typeIDsOff, _ := r.u32(68)
	protoIDsSize, _ := r.u32(72)
	protoIDsOff, _ := r.u32(76)
	fieldIDsSize, _ := r.u32(80)
	fieldIDsOff, _ := r.u32(84)
	methodIDsSize, _ := r.u32(88)
	methodIDsOff, _ := r.u32(92)
	classDefsSize, _ := r.u32(96)
	classDefsOff, _ := r.u32(100)

	const limit = 1 << 24 // defensive cap against hostile size fields
	for _, s := range []uint32{stringIDsSize, typeIDsSize, protoIDsSize,
		fieldIDsSize, methodIDsSize, classDefsSize} {
		if s > limit {
			return nil, &FormatError{Offset: 56, Reason: "section size too large"}
		}
	}

	f := &File{}

	f.Strings = make([]string, stringIDsSize)
	for i := 0; i < int(stringIDsSize); i++ {
		off, err := r.u32(int(stringIDsOff) + 4*i)
		if err != nil {
			return nil, err
		}
		s, err := r.readStringData(int(off))
		if err != nil {
			return nil, err
		}
		f.Strings[i] = s
	}

	f.Types = make([]uint32, typeIDsSize)
	for i := 0; i < int(typeIDsSize); i++ {
		v, err := r.u32(int(typeIDsOff) + 4*i)
		if err != nil {
			return nil, err
		}
		if v >= stringIDsSize {
			return nil, &FormatError{Offset: int(typeIDsOff) + 4*i, Reason: "type string index out of range"}
		}
		f.Types[i] = v
	}

	f.Protos = make([]Proto, protoIDsSize)
	for i := 0; i < int(protoIDsSize); i++ {
		base := int(protoIDsOff) + 12*i
		shorty, err := r.u32(base)
		if err != nil {
			return nil, err
		}
		ret, err := r.u32(base + 4)
		if err != nil {
			return nil, err
		}
		paramsOff, err := r.u32(base + 8)
		if err != nil {
			return nil, err
		}
		params, err := r.readTypeList(int(paramsOff))
		if err != nil {
			return nil, err
		}
		f.Protos[i] = Proto{Shorty: shorty, Return: ret, Params: params}
	}

	f.Fields = make([]FieldID, fieldIDsSize)
	for i := 0; i < int(fieldIDsSize); i++ {
		base := int(fieldIDsOff) + 8*i
		cls, err := r.u16(base)
		if err != nil {
			return nil, err
		}
		typ, err := r.u16(base + 2)
		if err != nil {
			return nil, err
		}
		name, err := r.u32(base + 4)
		if err != nil {
			return nil, err
		}
		f.Fields[i] = FieldID{Class: uint32(cls), Type: uint32(typ), Name: name}
	}

	f.Methods = make([]MethodID, methodIDsSize)
	for i := 0; i < int(methodIDsSize); i++ {
		base := int(methodIDsOff) + 8*i
		cls, err := r.u16(base)
		if err != nil {
			return nil, err
		}
		proto, err := r.u16(base + 2)
		if err != nil {
			return nil, err
		}
		name, err := r.u32(base + 4)
		if err != nil {
			return nil, err
		}
		f.Methods[i] = MethodID{Class: uint32(cls), Proto: uint32(proto), Name: name}
	}

	f.Classes = make([]ClassDef, classDefsSize)
	for i := 0; i < int(classDefsSize); i++ {
		base := int(classDefsOff) + 32*i
		vals := make([]uint32, 8)
		for j := range vals {
			v, err := r.u32(base + 4*j)
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		cd := ClassDef{
			Class:       vals[0],
			AccessFlags: vals[1],
			Superclass:  vals[2],
			SourceFile:  vals[4],
		}
		ifaces, err := r.readTypeList(int(vals[3]))
		if err != nil {
			return nil, err
		}
		cd.Interfaces = ifaces
		if vals[6] != 0 {
			if err := r.readClassData(int(vals[6]), &cd); err != nil {
				return nil, err
			}
		}
		if vals[7] != 0 {
			sv, err := r.readEncodedArray(int(vals[7]))
			if err != nil {
				return nil, err
			}
			cd.StaticValues = sv
		}
		f.Classes[i] = cd
	}
	return f, nil
}

func (r *byteReader) readStringData(off int) (string, error) {
	u16len, pos, err := readULEB128(r.buf, off)
	if err != nil {
		return "", &FormatError{Offset: off, Reason: "bad string length"}
	}
	end := pos
	for end < len(r.buf) && r.buf[end] != 0 {
		end++
	}
	if end >= len(r.buf) {
		return "", &FormatError{Offset: off, Reason: "unterminated string data"}
	}
	raw := r.buf[pos:end]
	if r.shared && pos < end {
		// Zero-copy path: an ASCII payload needs no transformation, so the
		// string header can alias the file buffer directly. Safe under the
		// ReadShared contract (the caller keeps buf immutable).
		i := 0
		for i < len(raw) && raw[i] != 0 && raw[i] < 0x80 {
			i++
		}
		if i == len(raw) {
			_ = u16len
			return unsafe.String(&raw[0], len(raw)), nil
		}
	}
	s, err := decodeMUTF8(raw)
	if err != nil {
		return "", &FormatError{Offset: off, Reason: err.Error()}
	}
	_ = u16len // length is re-derivable; trusted readers may verify
	return s, nil
}

func (r *byteReader) readTypeList(off int) ([]uint32, error) {
	if off == 0 {
		return nil, nil
	}
	size, err := r.u32(off)
	if err != nil {
		return nil, err
	}
	if size > 1<<16 {
		return nil, &FormatError{Offset: off, Reason: "type list too large"}
	}
	out := make([]uint32, size)
	for i := 0; i < int(size); i++ {
		v, err := r.u16(off + 4 + 2*i)
		if err != nil {
			return nil, err
		}
		out[i] = uint32(v)
	}
	return out, nil
}

func (r *byteReader) readClassData(off int, cd *ClassDef) error {
	pos := off
	var counts [4]uint32
	var err error
	for i := range counts {
		counts[i], pos, err = readULEB128(r.buf, pos)
		if err != nil {
			return &FormatError{Offset: off, Reason: "bad class data header"}
		}
	}
	const maxMembers = 1 << 20
	for _, c := range counts {
		if c > maxMembers {
			return &FormatError{Offset: off, Reason: "class data too large"}
		}
	}
	readFieldList := func(n uint32) ([]EncodedField, error) {
		if n == 0 {
			return nil, nil
		}
		out := make([]EncodedField, 0, n)
		idx := uint32(0)
		for i := uint32(0); i < n; i++ {
			var diff, flags uint32
			diff, pos, err = readULEB128(r.buf, pos)
			if err != nil {
				return nil, err
			}
			flags, pos, err = readULEB128(r.buf, pos)
			if err != nil {
				return nil, err
			}
			idx += diff
			out = append(out, EncodedField{Field: idx, AccessFlags: flags})
		}
		return out, nil
	}
	readMethodList := func(n uint32) ([]EncodedMethod, error) {
		if n == 0 {
			return nil, nil
		}
		out := make([]EncodedMethod, 0, n)
		idx := uint32(0)
		for i := uint32(0); i < n; i++ {
			var diff, flags, codeOff uint32
			diff, pos, err = readULEB128(r.buf, pos)
			if err != nil {
				return nil, err
			}
			flags, pos, err = readULEB128(r.buf, pos)
			if err != nil {
				return nil, err
			}
			codeOff, pos, err = readULEB128(r.buf, pos)
			if err != nil {
				return nil, err
			}
			idx += diff
			em := EncodedMethod{Method: idx, AccessFlags: flags}
			if codeOff != 0 {
				code, cerr := r.readCodeItem(int(codeOff))
				if cerr != nil {
					return nil, cerr
				}
				em.Code = code
			}
			out = append(out, em)
		}
		return out, nil
	}
	if cd.StaticFields, err = readFieldList(counts[0]); err != nil {
		return err
	}
	if cd.InstFields, err = readFieldList(counts[1]); err != nil {
		return err
	}
	if cd.DirectMeths, err = readMethodList(counts[2]); err != nil {
		return err
	}
	if cd.VirtualMeths, err = readMethodList(counts[3]); err != nil {
		return err
	}
	return nil
}

func (r *byteReader) readCodeItem(off int) (*Code, error) {
	regs, err := r.u16(off)
	if err != nil {
		return nil, err
	}
	ins, err := r.u16(off + 2)
	if err != nil {
		return nil, err
	}
	outs, err := r.u16(off + 4)
	if err != nil {
		return nil, err
	}
	triesSize, err := r.u16(off + 6)
	if err != nil {
		return nil, err
	}
	insnsSize, err := r.u32(off + 12)
	if err != nil {
		return nil, err
	}
	if insnsSize > MaxInsns {
		return nil, &FormatError{Offset: off, Reason: "instruction array too large"}
	}
	code := &Code{RegistersSize: regs, InsSize: ins, OutsSize: outs}
	// One bounds check for the whole array, then a tight copy loop.
	insnsStart := off + 16
	if insnsStart < 0 || insnsStart+2*int(insnsSize) > len(r.buf) {
		return nil, &FormatError{Offset: off, Reason: "truncated instruction array"}
	}
	code.Insns = r.insnsAt(insnsStart, int(insnsSize))
	if triesSize == 0 {
		return code, nil
	}
	triesOff := off + 16 + 2*int(insnsSize)
	if insnsSize%2 != 0 {
		triesOff += 2
	}
	handlersOff := triesOff + 8*int(triesSize)
	for i := 0; i < int(triesSize); i++ {
		base := triesOff + 8*i
		start, err := r.u32(base)
		if err != nil {
			return nil, err
		}
		count, err := r.u16(base + 4)
		if err != nil {
			return nil, err
		}
		hOff, err := r.u16(base + 6)
		if err != nil {
			return nil, err
		}
		t := Try{Start: start, Count: uint32(count), CatchAll: -1}
		pos := handlersOff + int(hOff)
		var size int32
		size, pos, err = readSLEB128(r.buf, pos)
		if err != nil {
			return nil, &FormatError{Offset: pos, Reason: "bad catch handler"}
		}
		n := size
		if n < 0 {
			n = -n
		}
		if n > 1<<12 {
			return nil, &FormatError{Offset: pos, Reason: "too many catch handlers"}
		}
		for j := int32(0); j < n; j++ {
			var typ, addr uint32
			typ, pos, err = readULEB128(r.buf, pos)
			if err != nil {
				return nil, &FormatError{Offset: pos, Reason: "bad catch type"}
			}
			addr, pos, err = readULEB128(r.buf, pos)
			if err != nil {
				return nil, &FormatError{Offset: pos, Reason: "bad catch addr"}
			}
			t.Handlers = append(t.Handlers, TypeAddr{Type: typ, Addr: addr})
		}
		if size <= 0 {
			var addr uint32
			addr, pos, err = readULEB128(r.buf, pos)
			if err != nil {
				return nil, &FormatError{Offset: pos, Reason: "bad catch-all addr"}
			}
			t.CatchAll = int32(addr)
		}
		code.Tries = append(code.Tries, t)
	}
	return code, nil
}

func (r *byteReader) readEncodedArray(off int) ([]Value, error) {
	size, pos, err := readULEB128(r.buf, off)
	if err != nil {
		return nil, &FormatError{Offset: off, Reason: "bad encoded array size"}
	}
	if size > 1<<16 {
		return nil, &FormatError{Offset: off, Reason: "encoded array too large"}
	}
	out := make([]Value, size)
	for i := uint32(0); i < size; i++ {
		out[i], pos, err = readEncodedValue(r.buf, pos)
		if err != nil {
			return nil, &FormatError{Offset: pos, Reason: err.Error()}
		}
	}
	return out, nil
}
