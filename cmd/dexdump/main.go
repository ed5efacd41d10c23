// Command dexdump inspects a DEX file (or the classes.dex of an APK):
// header summary, class list, each method's table (direct_methods or
// virtual_methods) and access flags, and smali-style disassembly.
//
// Usage:
//
//	dexdump -in file.dex [-class Lcom/x/Y;] [-method name]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dexlego/internal/apk"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dexdump:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dexdump", flag.ContinueOnError)
	in := fs.String("in", "", "input .dex or .apk path")
	classFilter := fs.String("class", "", "only this class descriptor")
	methodFilter := fs.String("method", "", "only methods with this name")
	verify := fs.Bool("verify", false, "run the structural verifier and report defects")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if strings.HasSuffix(*in, ".apk") {
		pkg, err := apk.Read(data)
		if err != nil {
			return err
		}
		data, err = pkg.Dex()
		if err != nil {
			return err
		}
	}
	f, err := dex.Read(data)
	if err != nil {
		return err
	}
	fmt.Printf("strings=%d types=%d protos=%d fields=%d methods=%d classes=%d instructions=%d\n",
		len(f.Strings), len(f.Types), len(f.Protos), len(f.Fields),
		len(f.Methods), len(f.Classes), f.InstructionCount())
	if *verify {
		defects := dex.Verify(f)
		if len(defects) == 0 {
			fmt.Println("verify: OK")
		}
		for _, d := range defects {
			fmt.Println("verify:", d)
		}
		if len(defects) > 0 {
			return fmt.Errorf("%d structural defects", len(defects))
		}
	}
	resolver := func(kind bytecode.IndexKind, idx uint32) string {
		switch kind {
		case bytecode.IndexString:
			return fmt.Sprintf("%q", f.String(idx))
		case bytecode.IndexType:
			return f.TypeName(idx)
		case bytecode.IndexField:
			return f.FieldAt(idx).Key()
		case bytecode.IndexMethod:
			return f.MethodAt(idx).Key()
		default:
			return fmt.Sprintf("@%d", idx)
		}
	}
	for ci := range f.Classes {
		cd := &f.Classes[ci]
		desc := f.TypeName(cd.Class)
		if *classFilter != "" && desc != *classFilter {
			continue
		}
		fmt.Printf("\nclass %s extends %s\n", desc, f.TypeName(cd.Superclass))
		for mi := range cd.NumMethods() {
			em := cd.Method(mi)
			ref := f.MethodAt(em.Method)
			if *methodFilter != "" && ref.Name != *methodFilter {
				continue
			}
			fmt.Printf("  %s%s  %s flags=%#x", ref.Name, ref.Signature, dex.MethodTable[mi < len(cd.DirectMeths)], em.AccessFlags)
			if em.Code == nil {
				fmt.Println()
				continue
			}
			fmt.Printf(" regs=%d ins=%d tries=%d\n",
				em.Code.RegistersSize, em.Code.InsSize, len(em.Code.Tries))
			lines, err := bytecode.Disassemble(em.Code.Insns, resolver)
			if err != nil {
				fmt.Printf("    <undecodable: %v>\n", err)
				continue
			}
			for _, l := range lines {
				fmt.Printf("    %s\n", l)
			}
		}
	}
	return nil
}
