package dex

import (
	"fmt"
	"sync"
)

// Signature is a parsed method prototype: the parameter and return
// descriptors, and how the parameters lay out in argument registers.
// ParseSignature shares one Signature per distinct string across the
// process, so it and its Params slice must never be mutated.
type Signature struct {
	Params []string
	Return string
	Words  int    // ParamWords(Params)
	Refs   uint64 // bit w set when argument word w (below 64) holds a reference
}

// ParamWords returns the register words that parameters of the given types
// take: two for J and D, one for any other type. It is the one place that
// rule is written; a prototype's ins, its invoke argument count and its
// parameter registers all derive from it.
func ParamWords(params []string) int {
	n := len(params)
	for _, p := range params {
		if p == "J" || p == "D" {
			n++
		}
	}
	return n
}

// InsSize returns the ins_size of a code item whose prototype takes words
// parameter words: one more for the receiver unless flags make it static.
// ART rejects a code item that declares any other value.
func InsSize(words int, flags uint32) int {
	if flags&AccStatic != 0 {
		return words
	}
	return words + 1
}

// sigs memoizes ParseSignature across the process. Signatures repeat
// heavily: every framework model rebuild re-declares the same methods, and
// the apps of a corpus share most of theirs.
var sigs sync.Map // signature string -> *Signature

// ParseSignature parses a (params)return signature. Each distinct string is
// parsed once per process; the result is shared (see Signature).
func ParseSignature(sig string) (*Signature, error) {
	if v, ok := sigs.Load(sig); ok {
		return v.(*Signature), nil
	}
	params, ret, err := splitSignature(sig)
	if err != nil {
		return nil, err
	}
	s := &Signature{Params: params, Return: ret, Words: ParamWords(params)}
	for i, p := range params {
		if w := ParamWords(params[:i]); (p[0] == 'L' || p[0] == '[') && w < 64 {
			s.Refs |= 1 << w
		}
	}
	v, _ := sigs.LoadOrStore(sig, s)
	return v.(*Signature), nil
}

// splitSignature splits a (params)return signature into parameter and
// return descriptors.
func splitSignature(sig string) (params []string, ret string, err error) {
	if len(sig) < 3 || sig[0] != '(' {
		return nil, "", fmt.Errorf("dex: malformed signature %q", sig)
	}
	i := 1
	for i < len(sig) && sig[i] != ')' {
		start := i
		for i < len(sig) && sig[i] == '[' {
			i++
		}
		if i >= len(sig) {
			return nil, "", fmt.Errorf("dex: malformed signature %q", sig)
		}
		if sig[i] == 'L' {
			for i < len(sig) && sig[i] != ';' {
				i++
			}
			if i >= len(sig) {
				return nil, "", fmt.Errorf("dex: malformed signature %q", sig)
			}
		}
		i++
		params = append(params, sig[start:i])
	}
	if i >= len(sig) || sig[i] != ')' {
		return nil, "", fmt.Errorf("dex: malformed signature %q", sig)
	}
	return params, sig[i+1:], nil
}
