package collector_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
)

// codecSamples are DroidBench samples whose records between them carry
// divergence children and code writes, switch tables, reflective targets
// and try/catch tables.
var codecSamples = []string{"SelfModifying1", "SwitchFlow1", "Reflection3", "CatchFlow1"}

// codecRecords collects the codec samples over three runs each and returns
// their records in key order, plus one hand-built record exercising what
// collection rarely produces: nil beside empty slices, every symbol kind,
// several reflective call sites, and a divergence child.
func codecRecords(tb testing.TB) []*collector.MethodRecord {
	tb.Helper()
	var recs []*collector.MethodRecord
	for _, name := range codecSamples {
		s := droidbench.ByName(name)
		pkg, err := s.Build()
		if err != nil {
			tb.Fatal(err)
		}
		col := collector.New()
		for run := 0; run < 3; run++ {
			collectRun(tb, s, pkg, col, run)
		}
		res := col.Result()
		keys := make([]string, 0, len(res.Methods))
		for k := range res.Methods {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			recs = append(recs, res.Methods[k])
		}
	}
	return append(recs, handBuiltRecord())
}

func handBuiltRecord() *collector.MethodRecord {
	child := &collector.TreeNode{
		SmStart: 2, SmEnd: -1,
		IL: []collector.Entry{{DexPC: 2, Inst: &bytecode.Inst{Op: bytecode.OpConst4, A: 1, Lit: -8, Args: []int{}}}},
	}
	root := &collector.TreeNode{
		SmStart: -1, SmEnd: -1,
		IL: []collector.Entry{
			{DexPC: 0, Inst: &bytecode.Inst{Op: bytecode.OpConstString, A: 0, Index: 7},
				Sym: &collector.Symbol{Kind: bytecode.IndexString, Str: "héllo\x00"}},
			{DexPC: 2, Inst: &bytecode.Inst{Op: bytecode.OpNewInstance, A: 1, Index: 1 << 31},
				Sym: &collector.Symbol{Kind: bytecode.IndexType, Type: "Lx/Y;"}},
			{DexPC: 4, Inst: &bytecode.Inst{Op: bytecode.OpIGet, A: 2, B: 1},
				Sym: &collector.Symbol{Kind: bytecode.IndexField, Field: dex.FieldRef{Class: "Lx/Y;", Name: "f", Type: "I"}}},
			{DexPC: 6, Inst: &bytecode.Inst{Op: bytecode.OpInvokeStatic, Args: []int{0, 1, 2}, Lit: 1 << 40},
				Sym: &collector.Symbol{Kind: bytecode.IndexMethod, Method: dex.MethodRef{Class: "Lx/Y;", Name: "m", Signature: "(II)V"}}},
			{DexPC: 9, Inst: &bytecode.Inst{Op: bytecode.OpPackedSwitch, A: 3, Off: -9,
				Keys: []int32{-2147483648, 0, 2147483647}, Targets: []int32{}}},
		},
		Children: []*collector.TreeNode{child},
	}
	child.Parent = root
	rec := &collector.MethodRecord{
		Class: "Lx/Y;", Name: "<init>", Signature: "()V",
		AccessFlags: 0xffffffff, Virtual: true, RegistersSize: 4, InsSize: 1, Written: true,
		Trees: []*collector.TreeNode{root, {SmStart: -1, SmEnd: -1, IL: []collector.Entry{}}},
		Tries: []collector.TryRecord{
			{StartPC: 0, Count: 6, CatchAllPC: -1, Handlers: []collector.TryCatch{{Type: "Ljava/lang/Exception;", HandlerPC: 12}}},
			{StartPC: 6, Count: 3, CatchAllPC: 14},
		},
		ReflTargets: map[int][]collector.ReflTarget{
			9: {{Class: "Lx/Y;", Name: "a", Signature: "()V", Static: true}},
			3: {{Class: "Lx/Z;", Name: "b", Signature: "(I)I"}, {Class: "Lx/Z;", Name: "c", Signature: "()V"}},
			5: {},
			7: nil,
		},
	}
	return rec
}

// checkIndex asserts that each node's IIM (TreeNode.Index) inverts its IL:
// every entry's dex_pc maps to that entry, and no other dex_pc maps at all.
func checkIndex(tb testing.TB, where string, n *collector.TreeNode) {
	tb.Helper()
	maxPC := -1
	for i := range n.IL {
		pc := n.IL[i].DexPC
		if j, ok := n.Index(pc); !ok || j != i {
			tb.Fatalf("%s: Index(%d) = %d, %v; want %d", where, pc, j, ok, i)
		}
		maxPC = max(maxPC, pc)
	}
	found := 0
	for pc := -1; pc <= maxPC+1; pc++ {
		if _, ok := n.Index(pc); ok {
			found++
		}
	}
	if found != len(n.IL) {
		tb.Fatalf("%s: Index maps %d dex_pcs, want the IL's %d", where, found, len(n.IL))
	}
	for _, c := range n.Children {
		checkIndex(tb, where, c)
	}
}

func encode(tb testing.TB, rec *collector.MethodRecord) []byte {
	tb.Helper()
	data, err := collector.EncodeRecord(rec)
	if err != nil {
		tb.Fatalf("%s: encode: %v", rec.Key(), err)
	}
	return data
}

// TestRecordRoundTrip: a decoded record marshals to the JSON of the one
// that was encoded, and re-encodes to the same bytes.
func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range codecRecords(t) {
		data := encode(t, rec)
		dec, err := collector.DecodeRecord(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Key(), err)
		}
		want, _ := json.Marshal(rec)
		got, _ := json.Marshal(dec)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: JSON differs after the round trip\n want %.300s\n  got %.300s", rec.Key(), want, got)
		}
		if !bytes.Equal(encode(t, dec), data) {
			t.Errorf("%s: decoded record re-encodes differently", rec.Key())
		}
		for _, tr := range dec.Trees {
			checkIndex(t, rec.Key(), tr)
		}
	}
}

// TestDecodedRecordDedups: a decoded record carries no dedup set until
// something merges into it, and then builds it from its trees, so a copy of
// one of its own trees stays out.
func TestDecodedRecordDedups(t *testing.T) {
	for _, rec := range codecRecords(t) {
		data := encode(t, rec)
		dec, err := collector.DecodeRecord(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Key(), err)
		}
		again, err := collector.DecodeRecord(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Key(), err)
		}
		for k := range again.Trees {
			res := &collector.Result{Methods: map[string]*collector.MethodRecord{dec.Key(): dec}}
			dup := &collector.MethodRecord{Class: dec.Class, Name: dec.Name, Signature: dec.Signature,
				Trees: again.Trees[k : k+1]}
			st := res.Merge(&collector.Result{Methods: map[string]*collector.MethodRecord{dec.Key(): dup}})
			if st.TreesOffered != 1 || st.TreesKept != 0 {
				t.Errorf("%s: merging a copy of tree %d: %+v, want 1 offered and 0 kept", rec.Key(), k, st)
			}
			if len(dec.Trees) != len(rec.Trees) {
				t.Fatalf("%s: record holds %d trees after the merge, want %d", rec.Key(), len(dec.Trees), len(rec.Trees))
			}
		}
	}
}

// pcRecord returns the encoding of a record whose one tree holds a single
// entry at dex_pc pc. EncodeRecord refuses a pc outside the IIM budget, so
// the record is encoded at pc 0 and the entry's one-byte dex_pc varint is
// then replaced. With pc = 1<<26 it is the 38-byte input that, without a
// bound on the rebuilt IIM, would allocate a 256 MiB index.
func pcRecord(tb testing.TB, pc int) []byte {
	tb.Helper()
	data := encode(tb, &collector.MethodRecord{
		Class: "La;", Name: "f", Signature: "()V",
		Trees: []*collector.TreeNode{{SmStart: -1, SmEnd: -1,
			IL: []collector.Entry{{DexPC: 0, Inst: &bytecode.Inst{Op: bytecode.OpReturnVoid}}}}},
	})
	// The tree opens with SmStart -1, SmEnd -1, an IL of one entry and
	// that entry's dex_pc 0: varints 01 01 02 00.
	i := bytes.Index(data, []byte{1, 1, 2, 0})
	if i < 0 {
		tb.Fatal("pcRecord: tree header not found")
	}
	i += 3
	return append(binary.AppendVarint(append([]byte(nil), data[:i]...), int64(pc)), data[i+1:]...)
}

// sparseRecords are records as a large, sparsely executed method leaves
// them: a few entries with the last far into the body, several forced
// trees that skip a big block to reach a late return, and self-modification
// children at a high dex_pc. Each needs more IIM slots than its encoding
// buys, so EncodeRecord must refuse it.
func sparseRecords() []*collector.MethodRecord {
	entry := func(pc int, op bytecode.Opcode) collector.Entry {
		return collector.Entry{DexPC: pc, Inst: &bytecode.Inst{Op: op}}
	}
	rec := func(name string, trees ...*collector.TreeNode) *collector.MethodRecord {
		return &collector.MethodRecord{Class: "Ls;", Name: name, Signature: "()V", Trees: trees}
	}
	var forced []*collector.TreeNode
	for i := 0; i < 4; i++ {
		forced = append(forced, &collector.TreeNode{SmStart: -1, SmEnd: -1, IL: []collector.Entry{
			entry(0, bytecode.OpNop), entry(1+i, bytecode.OpGoto), entry(6000+i, bytecode.OpReturnVoid)}})
	}
	root := &collector.TreeNode{SmStart: -1, SmEnd: -1, IL: []collector.Entry{entry(0, bytecode.OpNop)}}
	for i := 0; i < 3; i++ {
		root.Children = append(root.Children, &collector.TreeNode{SmStart: 6000, SmEnd: -1,
			IL: []collector.Entry{entry(6000+i, bytecode.OpReturnVoid)}})
	}
	return []*collector.MethodRecord{
		rec("late", &collector.TreeNode{SmStart: -1, SmEnd: -1, IL: []collector.Entry{
			entry(0, bytecode.OpNop), entry(1, bytecode.OpGoto), entry(6000, bytecode.OpReturnVoid)}}),
		rec("forced", forced...),
		rec("children", root),
	}
}

// TestEncodeDecodeTotal: whatever EncodeRecord returns, DecodeRecord
// accepts. Sparse records over the IIM budget fail to encode (they then
// stay resident instead of spilling and never enter the method cache),
// and a sparse record within it round-trips.
func TestEncodeDecodeTotal(t *testing.T) {
	for _, rec := range sparseRecords() {
		if data, err := collector.EncodeRecord(rec); err == nil {
			t.Errorf("%s: over-budget record encoded to %d bytes", rec.Key(), len(data))
		}
	}
	rec := &collector.MethodRecord{Class: "Ls;", Name: "near", Signature: "()V",
		Trees: []*collector.TreeNode{{SmStart: -1, SmEnd: -1, IL: []collector.Entry{
			{DexPC: 0, Inst: &bytecode.Inst{Op: bytecode.OpNop}},
			{DexPC: 4000, Inst: &bytecode.Inst{Op: bytecode.OpReturnVoid}}}}}}
	dec, err := collector.DecodeRecord(encode(t, rec))
	if err != nil {
		t.Fatalf("within-budget sparse record does not decode: %v", err)
	}
	checkIndex(t, rec.Key(), dec.Trees[0])
}

// TestDecodeRecordRejects: anything but a complete record in the binary
// format is an error — every proper prefix, a trailing byte, the record's
// JSON (the v1 cache format), and a foreign tag.
func TestDecodeRecordRejects(t *testing.T) {
	for _, rec := range codecRecords(t) {
		data := encode(t, rec)
		for n := 0; n < len(data); n++ {
			if _, err := collector.DecodeRecord(data[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte record decoded", rec.Key(), n, len(data))
			}
		}
		if _, err := collector.DecodeRecord(append(append([]byte(nil), data...), 0)); err == nil {
			t.Errorf("%s: record with a trailing byte decoded", rec.Key())
		}
		js, _ := json.Marshal(rec)
		if _, err := collector.DecodeRecord(js); err == nil {
			t.Errorf("%s: JSON record decoded as binary", rec.Key())
		}
		bad := append([]byte("R1"), data[2:]...)
		if _, err := collector.DecodeRecord(bad); err == nil {
			t.Errorf("%s: record under a foreign tag decoded", rec.Key())
		}
	}
	// A negative dex_pc has no IIM slot, and a dex_pc beyond the budget
	// would take more IIM slots than the input may buy.
	for _, pc := range []int{-1, 1 << 26} {
		if _, err := collector.DecodeRecord(pcRecord(t, pc)); err == nil {
			t.Errorf("record with an entry at dex_pc %d decoded", pc)
		}
	}
	if _, err := collector.DecodeRecord(pcRecord(t, 4096)); err != nil {
		t.Errorf("record with an entry at dex_pc 4096 rejected: %v", err)
	}
}

// maxAllocPerInputByte bounds what DecodeRecord may allocate per input
// byte. Every element a count announces costs at least one encoded byte,
// and the largest decoded element per byte is an empty child node (a
// TreeNode for four bytes); a count trusted beyond the remaining bytes
// overshoots this by orders of magnitude, and so does an IIM rebuilt for
// a dex_pc far beyond the input's size.
const maxAllocPerInputByte = 96

// FuzzDecodeRecord: DecodeRecord never panics; its allocation stays
// O(len(data)); and an accepted input re-encodes to bytes that decode to a
// deep-equal record and encode back to themselves.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range codecRecords(f) {
		data := encode(f, rec)
		f.Add(data)
		f.Add(data[:len(data)/2])
		js, _ := json.Marshal(rec)
		f.Add(js)
	}
	f.Add([]byte{})
	f.Add([]byte("R2"))
	// A million trees announced with nothing behind them: an unchecked
	// count allocates megabytes here.
	f.Add([]byte("R2\x00\x00\x00\x00\x00\x00\x00\x80\x80\x40"))
	f.Add(pcRecord(f, 1<<26))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec, err := collector.DecodeRecord(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(maxAllocPerInputByte*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		re, err := collector.EncodeRecord(dec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		dec2, err := collector.DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("re-encoded record decodes differently")
		}
		if again, _ := collector.EncodeRecord(dec2); !bytes.Equal(again, re) {
			t.Fatalf("encoding not stable across a round trip")
		}
	})
}

// TestCollectionFilesLoadSparse: the collection files carry every record,
// sparse ones the record codec refuses included, and ReadFiles loads them
// back with each node's IIM rebuilt.
func TestCollectionFilesLoadSparse(t *testing.T) {
	res := &collector.Result{
		Classes: []collector.ClassRecord{{Descriptor: "Ls;"}},
		Methods: map[string]*collector.MethodRecord{},
	}
	for _, rec := range sparseRecords() {
		res.Methods[rec.Key()] = rec
	}
	dir := t.TempDir()
	if err := res.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	got, err := collector.ReadFiles(dir)
	if err != nil {
		t.Fatalf("collection files with sparse records do not load: %v", err)
	}
	for key, rec := range res.Methods {
		back := got.Methods[key]
		if back == nil || len(back.Trees) != len(rec.Trees) {
			t.Fatalf("%s: reloaded record lost trees", key)
		}
		for _, tr := range back.Trees {
			checkIndex(t, key, tr)
		}
	}
}
