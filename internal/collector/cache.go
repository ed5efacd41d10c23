package collector

// The incremental method cache and the spill tier store one MethodRecord
// per entry — the method's collection trees plus the shape metadata the
// reassembler needs — in a compact binary form built from the same varint
// and length-prefixed-string helpers the tree fingerprint uses. Encode and
// Decode are the (de)serialization boundary; SpliceRecord grafts a decoded
// record into a partial Result in place of the execution that was skipped.
// The on-disk collection files (files.go) stay JSON.
//
// Record layout (every integer a zig-zag varint unless noted):
//
//	record := "R2" class name signature accessFlags(uvarint)
//	          flags(byte: 1 virtual, 2 written) registersSize insSize
//	          n(uvarint) node×n
//	          n(uvarint) try×n
//	          n(uvarint) (pc list(target))×n  — ReflTargets, ascending pc
//	node   := smStart smEnd list(entry) n(uvarint) node×n
//	entry  := pc op(byte) a b c index(uvarint) lit off
//	          list(int) list(int) list(int) sym   — Args, Keys, Targets
//	try    := startPC count n(uvarint) (type handlerPC)×n catchAllPC
//	target := class name signature static(byte)
//	list(x):= 0 (nil) | n+1 (uvarint) x×n
//	sym    := as appendSym
//
// Strings are length-prefixed as appendStr writes them. Slices that JSON
// writes without omitempty keep the nil/empty distinction (list), so a
// decoded record marshals to the same JSON as the one that was encoded.
// The IIM, parent links and the fingerprint dedup index are not stored:
// Decode rebuilds them, the IIM within a budget (checkIndexBudget). The
// leading "R2" tag rejects anything that is not this format — notably a v1
// JSON record, which opens with '{'.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"dexlego/internal/bytecode"
)

// recordTag opens every encoded record.
const recordTag = "R2"

// Flag bits of an encoded record.
const (
	flagVirtual = 1 << iota
	flagWritten
)

// Minimum encoded sizes, so a decoded count can be checked against the
// bytes left before anything is allocated for it.
const (
	minNodeBytes   = 4  // smStart smEnd list children
	minEntryBytes  = 12 // pc op a b c index lit off args keys targets sym
	minTryBytes    = 4  // startPC count handlers catchAllPC
	minCatchBytes  = 2  // type handlerPC
	minReflBytes   = 2  // pc list
	minTargetBytes = 4  // class name signature static
)

// EncodeRecord serializes a method record for the method cache and the
// spill tier. Tree and child order is preserved exactly: on the plain path
// execution order is the canonical order, on the force path the record is
// canonicalized (fingerprint-sorted) before encoding, so in both cases a
// later splice reproduces the bytes the full path would have produced.
// The encoding is deterministic: equal records encode to equal bytes.
func EncodeRecord(rec *MethodRecord) ([]byte, error) {
	scratch := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(scratch)
	buf, err := appendRecord((*scratch)[:0], rec)
	*scratch = buf
	if err != nil {
		return nil, err
	}
	// Refuse what DecodeRecord would refuse, so that every encoding
	// decodes: such a record stays resident rather than spilled, and
	// never enters the method cache.
	if err := checkIndexBudget(rec, len(buf)); err != nil {
		return nil, fmt.Errorf("collector: encode method record: %w", err)
	}
	// Callers retain the bytes (cache entries, spill fallbacks), so hand
	// out an exact-size copy rather than a slice of a growing buffer.
	return append([]byte(nil), buf...), nil
}

// encodeBufs recycles EncodeRecord's scratch buffers.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

func appendRecord(buf []byte, rec *MethodRecord) ([]byte, error) {
	buf = append(buf, recordTag...)
	buf = appendStr(buf, rec.Class)
	buf = appendStr(buf, rec.Name)
	buf = appendStr(buf, rec.Signature)
	buf = binary.AppendUvarint(buf, uint64(rec.AccessFlags))
	var flags byte
	if rec.Virtual {
		flags |= flagVirtual
	}
	if rec.Written {
		flags |= flagWritten
	}
	buf = append(buf, flags)
	buf = appendVarint(buf, int64(rec.RegistersSize))
	buf = appendVarint(buf, int64(rec.InsSize))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Trees)))
	for _, tr := range rec.Trees {
		if tr == nil {
			return buf, errors.New("collector: encode method record: nil tree")
		}
		buf = appendNode(buf, tr)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Tries)))
	for i := range rec.Tries {
		t := &rec.Tries[i]
		buf = appendVarint(buf, int64(t.StartPC))
		buf = appendVarint(buf, int64(t.Count))
		buf = binary.AppendUvarint(buf, uint64(len(t.Handlers)))
		for _, h := range t.Handlers {
			buf = appendStr(buf, h.Type)
			buf = appendVarint(buf, int64(h.HandlerPC))
		}
		buf = appendVarint(buf, int64(t.CatchAllPC))
	}
	pcs := make([]int, 0, len(rec.ReflTargets))
	for pc := range rec.ReflTargets {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	buf = binary.AppendUvarint(buf, uint64(len(pcs)))
	for _, pc := range pcs {
		targets := rec.ReflTargets[pc]
		buf = appendVarint(buf, int64(pc))
		buf = appendLen(buf, targets == nil, len(targets))
		for _, t := range targets {
			buf = appendStr(buf, t.Class)
			buf = appendStr(buf, t.Name)
			buf = appendStr(buf, t.Signature)
			buf = appendBool(buf, t.Static)
		}
	}
	return buf, nil
}

func appendNode(buf []byte, n *TreeNode) []byte {
	buf = appendVarint(buf, int64(n.SmStart))
	buf = appendVarint(buf, int64(n.SmEnd))
	buf = appendLen(buf, n.IL == nil, len(n.IL))
	for i := range n.IL {
		e := &n.IL[i]
		in := e.Inst
		buf = appendVarint(buf, int64(e.DexPC))
		buf = append(buf, byte(in.Op))
		buf = appendVarint(buf, int64(in.A))
		buf = appendVarint(buf, int64(in.B))
		buf = appendVarint(buf, int64(in.C))
		buf = binary.AppendUvarint(buf, uint64(in.Index))
		buf = appendVarint(buf, in.Lit)
		buf = appendVarint(buf, int64(in.Off))
		buf = appendLen(buf, in.Args == nil, len(in.Args))
		for _, a := range in.Args {
			buf = appendVarint(buf, int64(a))
		}
		buf = appendLen(buf, in.Keys == nil, len(in.Keys))
		for _, k := range in.Keys {
			buf = appendVarint(buf, int64(k))
		}
		buf = appendLen(buf, in.Targets == nil, len(in.Targets))
		for _, t := range in.Targets {
			buf = appendVarint(buf, int64(t))
		}
		buf = appendSym(buf, e.Sym)
	}
	buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
	for _, c := range n.Children {
		buf = appendNode(buf, c)
	}
	return buf
}

// appendLen writes a list header: 0 for a nil slice, n+1 otherwise.
func appendLen(buf []byte, isNil bool, n int) []byte {
	if isNil {
		return append(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(n)+1)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// DecodeRecord deserializes a cached method record, rebuilding the
// collection-time state the encoding does not carry: each node's IIM,
// parent links and the fingerprint dedup index. Any input that is not a
// complete record in this format — truncated, trailing bytes, a v1 JSON
// record, a dex_pc no code item reaches, garbage — is an error, never a
// panic, and no count is trusted beyond the bytes that remain to back it.
// A record whose IIMs would take more slots than checkIndexBudget allows
// is an error too.
func DecodeRecord(data []byte) (*MethodRecord, error) {
	rec, err := decodeRecord(data)
	if err != nil {
		return nil, fmt.Errorf("collector: decode method record: %w", err)
	}
	return rec, nil
}

func decodeRecord(data []byte) (*MethodRecord, error) {
	if len(data) < len(recordTag) || string(data[:len(recordTag)]) != recordTag {
		return nil, errors.New("not a binary method record")
	}
	d := &recordDecoder{buf: data[len(recordTag):]}
	rec := &MethodRecord{
		Class:     d.str(),
		Name:      d.str(),
		Signature: d.str(),
	}
	if access := d.uvarint(); access > math.MaxUint32 {
		d.fail("access flags out of range")
	} else {
		rec.AccessFlags = uint32(access)
	}
	flags := d.byte()
	if flags&^(flagVirtual|flagWritten) != 0 {
		d.fail("unknown record flags")
	}
	rec.Virtual = flags&flagVirtual != 0
	rec.Written = flags&flagWritten != 0
	rec.RegistersSize = d.int()
	rec.InsSize = d.int()
	if n := d.count(minNodeBytes); n > 0 {
		rec.Trees = make([]*TreeNode, n)
		for i := range rec.Trees {
			rec.Trees[i] = d.node()
		}
	}
	if n := d.count(minTryBytes); n > 0 {
		rec.Tries = make([]TryRecord, n)
		for i := range rec.Tries {
			t := &rec.Tries[i]
			t.StartPC = d.int()
			t.Count = d.int()
			if m := d.count(minCatchBytes); m > 0 {
				t.Handlers = make([]TryCatch, m)
				for j := range t.Handlers {
					t.Handlers[j] = TryCatch{Type: d.str(), HandlerPC: d.int()}
				}
			}
			t.CatchAllPC = d.int()
		}
	}
	if n := d.count(minReflBytes); n > 0 {
		rec.ReflTargets = make(map[int][]ReflTarget, n)
		last := 0
		for i := 0; i < n && d.err == nil; i++ {
			pc := d.int()
			if i > 0 && pc <= last {
				d.fail("reflective call sites out of order")
			}
			last = pc
			var targets []ReflTarget
			if m, ok := d.list(minTargetBytes); ok {
				targets = make([]ReflTarget, m)
				for j := range targets {
					targets[j] = ReflTarget{Class: d.str(), Name: d.str(), Signature: d.str(), Static: d.bool()}
				}
			}
			rec.ReflTargets[pc] = targets
		}
	}
	if d.err == nil && len(d.buf) > 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := checkIndexBudget(rec, len(data)); err != nil {
		return nil, err
	}
	rec.reindex()
	return rec, nil
}

// checkIndexBudget fails unless the IIMs of rec, encoded in n bytes, fit
// in 4·n+4096 slots. A slot costs four bytes, so the IIMs DecodeRecord
// rebuilds stay O(input): without the bound, a 38-byte record with one
// entry at dex_pc 1<<26 would allocate 256 MiB. EncodeRecord applies the
// same check, so a sparse record (a few entries far into a long method)
// fails to encode instead of encoding to bytes that never decode.
func checkIndexBudget(rec *MethodRecord, n int) error {
	slots, err := indexSlots(rec.Trees)
	if err != nil {
		return err
	}
	if budget := 4*n + 4096; slots > budget {
		return fmt.Errorf("IIMs need %d slots, over the budget of %d for %d bytes", slots, budget, n)
	}
	return nil
}

// recordDecoder reads an encoded record front to back. The first error
// sticks and empties the buffer: every later read returns a zero value, so
// the decode functions need not check after each field. A loop over a
// count read before the error runs out on zero values, so it allocates no
// more than the bytes then left allowed.
type recordDecoder struct {
	buf []byte
	err error
}

func (d *recordDecoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
		d.buf = nil
	}
}

func (d *recordDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *recordDecoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *recordDecoder) int() int {
	v := d.varint()
	if v < math.MinInt || v > math.MaxInt {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

func (d *recordDecoder) int32() int32 {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("integer out of range")
		return 0
	}
	return int32(v)
}

func (d *recordDecoder) byte() byte {
	if len(d.buf) == 0 {
		d.fail("truncated record")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *recordDecoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bad boolean")
	return false
}

// str reads the appendStr form: a zig-zag varint length, then the bytes.
func (d *recordDecoder) str() string {
	n := d.varint()
	if n < 0 || n > int64(len(d.buf)) {
		d.fail("string runs past the end")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// count reads an element count and checks that the remaining bytes can
// hold that many elements of at least minBytes each.
func (d *recordDecoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)/minBytes) {
		d.fail("count exceeds the remaining bytes")
		return 0
	}
	return int(n)
}

// list reads a list header (0 = nil, n+1 = n elements); ok is false for nil.
func (d *recordDecoder) list(minBytes int) (n int, ok bool) {
	h := d.uvarint()
	if h == 0 {
		return 0, false
	}
	if h-1 > uint64(len(d.buf)/minBytes) {
		d.fail("count exceeds the remaining bytes")
		return 0, false
	}
	return int(h - 1), true
}

func (d *recordDecoder) node() *TreeNode {
	n := &TreeNode{SmStart: d.int(), SmEnd: d.int()}
	if m, ok := d.list(minEntryBytes); ok {
		// One slab holds the node's instructions; each entry points into it.
		n.IL = make([]Entry, m)
		insts := make([]bytecode.Inst, m)
		for i := range n.IL {
			n.IL[i].Inst = &insts[i]
			d.entry(&n.IL[i])
		}
	}
	if m := d.count(minNodeBytes); m > 0 {
		n.Children = make([]*TreeNode, m)
		for i := range n.Children {
			n.Children[i] = d.node()
		}
	}
	return n
}

func (d *recordDecoder) entry(e *Entry) {
	e.DexPC = d.int()
	in := e.Inst
	in.Op = bytecode.Opcode(d.byte())
	in.A = d.int32()
	in.B = d.int32()
	in.C = d.int32()
	if idx := d.uvarint(); idx > math.MaxUint32 {
		d.fail("index out of range")
	} else {
		in.Index = uint32(idx)
	}
	in.Lit = d.varint()
	in.Off = d.int32()
	if m, ok := d.list(1); ok {
		in.Args = make([]int, m)
		for i := range in.Args {
			in.Args[i] = d.int()
		}
	}
	if m, ok := d.list(1); ok {
		in.Keys = make([]int32, m)
		for i := range in.Keys {
			in.Keys[i] = d.int32()
		}
	}
	if m, ok := d.list(1); ok {
		in.Targets = make([]int32, m)
		for i := range in.Targets {
			in.Targets[i] = d.int32()
		}
	}
	e.Sym = d.sym()
}

// sym reads the appendSym form.
func (d *recordDecoder) sym() *Symbol {
	tag := d.byte()
	if tag == 0 || d.err != nil {
		return nil
	}
	s := &Symbol{Kind: bytecode.IndexKind(tag - 1)}
	switch s.Kind {
	case bytecode.IndexNone:
	case bytecode.IndexString:
		s.Str = d.str()
	case bytecode.IndexType:
		s.Type = d.str()
	case bytecode.IndexField:
		s.Field.Class, s.Field.Name, s.Field.Type = d.str(), d.str(), d.str()
	case bytecode.IndexMethod:
		s.Method.Class, s.Method.Name, s.Method.Signature = d.str(), d.str(), d.str()
	default:
		d.fail("unknown symbol kind")
		return nil
	}
	return s
}

// SpliceRecord grafts a cached record into r under its method key,
// reporting how many trees were adopted. On the incremental path skipped
// methods collect nothing, so the key is normally absent and the record is
// adopted wholesale; if a record already exists (defensive: a merge created
// a shell for it), the cached trees and metadata are unioned into it with
// the same dedup rules as Merge.
func (r *Result) SpliceRecord(rec *MethodRecord) int {
	if rec == nil {
		return 0
	}
	if _, ok := r.Methods[rec.Key()]; !ok {
		r.Methods[rec.Key()] = rec
		return len(rec.Trees)
	}
	st := r.Merge(&Result{Methods: map[string]*MethodRecord{rec.Key(): rec}})
	return st.TreesKept
}
