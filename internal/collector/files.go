package collector

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Collection file names, mirroring Fig. 2 of the paper.
const (
	ClassDataFile    = "class_data.json"
	StaticValuesFile = "static_values.json"
	MethodDataFile   = "method_data.json"
	FieldDataFile    = "field_data.json"
	BytecodeFile     = "bytecode.json"
)

type classFileEntry struct {
	Descriptor  string   `json:"descriptor"`
	Superclass  string   `json:"superclass"`
	Interfaces  []string `json:"interfaces,omitempty"`
	SourceFile  string   `json:"sourceFile,omitempty"`
	AccessFlags uint32   `json:"accessFlags"`
}

type fieldFileEntry struct {
	Class    string        `json:"class"`
	Static   []FieldRecord `json:"static,omitempty"`
	Instance []FieldRecord `json:"instance,omitempty"`
}

type staticValueEntry struct {
	Class string       `json:"class"`
	Field string       `json:"field"`
	Value *ValueRecord `json:"value"`
}

type methodFileEntry struct {
	Class   string          `json:"class"`
	Shells  []MethodShell   `json:"shells"`
	Records []*MethodRecord `json:"records,omitempty"`
}

type bytecodeFileEntry struct {
	Method string      `json:"method"`
	Trees  []*TreeNode `json:"trees"`
}

// WriteFiles serializes the collection result as the paper's five
// collection files inside dir. Each tree is written once, into
// bytecode.json; the method records in method_data.json carry everything
// else.
func (r *Result) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("collector: create dir: %w", err)
	}
	var codes []bytecodeFileEntry
	keys := make([]string, 0, len(r.Methods))
	for k := range r.Methods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recordsByClass := make(map[string][]*MethodRecord)
	for _, k := range keys {
		rec := r.Methods[k]
		meta := *rec
		meta.Trees = nil
		recordsByClass[rec.Class] = append(recordsByClass[rec.Class], &meta)
		if len(rec.Trees) > 0 {
			codes = append(codes, bytecodeFileEntry{Method: k, Trees: rec.Trees})
		}
	}
	var classes []classFileEntry
	var fields []fieldFileEntry
	var statics []staticValueEntry
	var methods []methodFileEntry
	for _, c := range r.Classes {
		classes = append(classes, classFileEntry{
			Descriptor:  c.Descriptor,
			Superclass:  c.Superclass,
			Interfaces:  c.Interfaces,
			SourceFile:  c.SourceFile,
			AccessFlags: c.AccessFlags,
		})
		fe := fieldFileEntry{Class: c.Descriptor}
		for _, f := range c.StaticFields {
			meta := f
			meta.Value = nil
			fe.Static = append(fe.Static, meta)
			if f.Value != nil {
				statics = append(statics, staticValueEntry{
					Class: c.Descriptor, Field: f.Name, Value: f.Value,
				})
			}
		}
		fe.Instance = c.InstanceFields
		fields = append(fields, fe)
		methods = append(methods, methodFileEntry{Class: c.Descriptor, Shells: c.Methods, Records: recordsByClass[c.Descriptor]})
	}
	for _, f := range []struct {
		name string
		v    any
	}{{ClassDataFile, classes}, {FieldDataFile, fields}, {StaticValuesFile, statics}, {MethodDataFile, methods}, {BytecodeFile, codes}} {
		data, err := json.MarshalIndent(f.v, "", " ")
		if err != nil {
			return fmt.Errorf("collector: marshal %s: %w", f.name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), data, 0o644); err != nil {
			return fmt.Errorf("collector: write %s: %w", f.name, err)
		}
	}
	return nil
}

// ReadFiles reloads a Result from collection files previously written by
// WriteFiles. It rebuilds each IIM with no byte budget: unlike the record
// codec, the files hold sparse records (a few entries far into a long
// method) too. A dex_pc no loaded method reaches is still an error.
func ReadFiles(dir string) (*Result, error) {
	var classes []classFileEntry
	var fields []fieldFileEntry
	var statics []staticValueEntry
	var methods []methodFileEntry
	var codes []bytecodeFileEntry
	for _, f := range []struct {
		name string
		v    any
	}{{ClassDataFile, &classes}, {FieldDataFile, &fields}, {StaticValuesFile, &statics}, {MethodDataFile, &methods}, {BytecodeFile, &codes}} {
		data, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			return nil, fmt.Errorf("collector: read %s: %w", f.name, err)
		}
		if err := json.Unmarshal(data, f.v); err != nil {
			return nil, fmt.Errorf("collector: parse %s: %w", f.name, err)
		}
	}

	res := &Result{Methods: make(map[string]*MethodRecord)}
	fieldsByClass := make(map[string]fieldFileEntry, len(fields))
	for _, fe := range fields {
		fieldsByClass[fe.Class] = fe
	}
	staticVals := make(map[string]*ValueRecord, len(statics))
	for _, sv := range statics {
		staticVals[sv.Class+"->"+sv.Field] = sv.Value
	}
	shellsByClass := make(map[string][]MethodShell, len(methods))
	for _, me := range methods {
		shellsByClass[me.Class] = me.Shells
		for _, rec := range me.Records {
			res.Methods[rec.Key()] = rec
		}
	}
	for _, ce := range classes {
		cr := ClassRecord{
			Descriptor:  ce.Descriptor,
			Superclass:  ce.Superclass,
			Interfaces:  ce.Interfaces,
			SourceFile:  ce.SourceFile,
			AccessFlags: ce.AccessFlags,
			Methods:     shellsByClass[ce.Descriptor],
		}
		fe := fieldsByClass[ce.Descriptor]
		for _, f := range fe.Static {
			f.Value = staticVals[ce.Descriptor+"->"+f.Name]
			cr.StaticFields = append(cr.StaticFields, f)
		}
		cr.InstanceFields = fe.Instance
		res.Classes = append(res.Classes, cr)
	}
	for _, be := range codes {
		if rec, ok := res.Methods[be.Method]; ok {
			rec.Trees = be.Trees
		}
	}
	for key, rec := range res.Methods {
		if _, err := indexSlots(rec.Trees); err != nil {
			return nil, fmt.Errorf("collector: %s: %s: %w", BytecodeFile, key, err)
		}
		rec.reindex()
	}
	return res, nil
}
