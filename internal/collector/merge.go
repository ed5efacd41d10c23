package collector

import (
	"encoding/json"
	"slices"
	"sort"
)

// MergeStats summarizes one Result.Merge call — the inputs of the
// worker_merge trace event.
type MergeStats struct {
	// TreesOffered counts collection trees in the incoming result.
	TreesOffered int
	// TreesKept counts offered trees adopted into the receiver; the
	// difference is fingerprint-duplicate dedup hits.
	TreesKept int
	// Classes counts class records adopted (new descriptors plus conflict
	// resolutions that replaced the receiver's record).
	Classes int
}

// Merge unions other into r: method records are merged per key, collection
// trees are deduplicated by their canonical varint fingerprint, and class,
// try, and reflection records are unioned. Merge is commutative and
// associative up to ordering — any shard arrival order yields the same set
// of records, and Canonicalize imposes the same order on every history —
// which is what makes parallel force-execution byte-identical to serial.
//
// other is consumed: its trees are adopted by pointer, so the caller must
// not keep collecting into it afterwards.
func (r *Result) Merge(other *Result) MergeStats {
	var st MergeStats
	if other == nil {
		return st
	}
	for i := range other.Classes {
		oc := &other.Classes[i]
		ec := r.Class(oc.Descriptor)
		if ec == nil {
			r.Classes = append(r.Classes, *oc)
			st.Classes++
			continue
		}
		// Distinct runs can observe a class at different initialization
		// states (forced branches change <clinit> effects). Keeping the
		// record with the smaller canonical encoding is arbitrary but
		// commutative and associative, so the survivor is independent of
		// shard count and merge order. Equal records encode equally, so
		// the usual case — every shard saw the same class — skips the
		// encoding.
		if classEqual(oc, ec) {
			continue
		}
		if oe, ee := classEncoding(oc), classEncoding(ec); oe < ee {
			*ec = *oc
			st.Classes++
		}
	}
	for key, om := range other.Methods {
		rm, ok := r.Methods[key]
		if !ok {
			rm = &MethodRecord{
				Class:       om.Class,
				Name:        om.Name,
				Signature:   om.Signature,
				AccessFlags: om.AccessFlags,
				Virtual:     om.Virtual,
			}
			r.Methods[key] = rm
		}
		// Shape fields agree across runs of the same DEX; max keeps the
		// merge commutative if they ever diverge.
		rm.RegistersSize = max(rm.RegistersSize, om.RegistersSize)
		rm.InsSize = max(rm.InsSize, om.InsSize)
		// A code write observed in any shard poisons cacheability everywhere.
		rm.Written = rm.Written || om.Written
		if rm.Tries == nil {
			rm.Tries = om.Tries
		}
		st.TreesOffered += len(om.Trees)
		seen := rm.seenSet()
		for _, t := range om.Trees {
			fp := t.Fingerprint()
			if seen[fp] {
				continue
			}
			seen[fp] = true
			rm.Trees = append(rm.Trees, t)
			st.TreesKept++
		}
		for pc, targets := range om.ReflTargets {
			if rm.ReflTargets == nil {
				rm.ReflTargets = make(map[int][]ReflTarget)
			}
		adopt:
			for _, rt := range targets {
				for _, existing := range rm.ReflTargets[pc] {
					if existing == rt {
						continue adopt
					}
				}
				rm.ReflTargets[pc] = append(rm.ReflTargets[pc], rt)
			}
		}
	}
	return st
}

// classEqual reports whether two class records are field-for-field equal,
// which implies equal encodings.
func classEqual(a, b *ClassRecord) bool {
	return a.Descriptor == b.Descriptor && a.Superclass == b.Superclass &&
		a.SourceFile == b.SourceFile && a.AccessFlags == b.AccessFlags &&
		slices.Equal(a.Interfaces, b.Interfaces) && slices.Equal(a.Methods, b.Methods) &&
		slices.EqualFunc(a.StaticFields, b.StaticFields, fieldEqual) &&
		slices.EqualFunc(a.InstanceFields, b.InstanceFields, fieldEqual)
}

func fieldEqual(a, b FieldRecord) bool {
	if a.Name != b.Name || a.Type != b.Type || a.AccessFlags != b.AccessFlags {
		return false
	}
	if a.Value == nil || b.Value == nil {
		return a.Value == b.Value
	}
	return *a.Value == *b.Value
}

func classEncoding(c *ClassRecord) string {
	b, err := json.Marshal(c)
	if err != nil {
		// ClassRecord contains only marshalable fields; this cannot happen.
		panic("collector: class record does not encode: " + err.Error())
	}
	return string(b)
}

// Canonicalize imposes a history-independent order on the result: classes
// sort by descriptor, each method's trees by fingerprint, and reflection
// targets by key. The reassembler processes trees in slice order, so this
// is what turns "same set of records" into "same output bytes" for every
// worker count. The plain serial pipeline does not canonicalize — its
// execution order IS its canonical order — so this is called only where
// results are merged from shards.
func (r *Result) Canonicalize() {
	sort.Slice(r.Classes, func(i, j int) bool {
		return r.Classes[i].Descriptor < r.Classes[j].Descriptor
	})
	for _, rec := range r.Methods {
		if len(rec.Trees) > 1 {
			fps := make([]string, len(rec.Trees))
			for i, t := range rec.Trees {
				fps[i] = t.Fingerprint()
			}
			sort.Sort(&treesByFP{trees: rec.Trees, fps: fps})
		}
		for _, targets := range rec.ReflTargets {
			sort.Slice(targets, func(i, j int) bool {
				if targets[i].Key() != targets[j].Key() {
					return targets[i].Key() < targets[j].Key()
				}
				return !targets[i].Static && targets[j].Static
			})
		}
	}
}

// treesByFP sorts a tree slice and its parallel fingerprint slice together.
type treesByFP struct {
	trees []*TreeNode
	fps   []string
}

func (s *treesByFP) Len() int           { return len(s.trees) }
func (s *treesByFP) Less(i, j int) bool { return s.fps[i] < s.fps[j] }
func (s *treesByFP) Swap(i, j int) {
	s.trees[i], s.trees[j] = s.trees[j], s.trees[i]
	s.fps[i], s.fps[j] = s.fps[j], s.fps[i]
}
