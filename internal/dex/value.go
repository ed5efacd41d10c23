package dex

import (
	"fmt"

	"dexlego/internal/bytecode"
)

// ValueKind identifies an encoded_value type. Values match the DEX
// specification's VALUE_* codes.
type ValueKind uint8

// Supported encoded value kinds.
const (
	ValueByte    ValueKind = 0x00
	ValueShort   ValueKind = 0x02
	ValueInt     ValueKind = 0x04
	ValueLong    ValueKind = 0x06
	ValueString  ValueKind = 0x17
	ValueType    ValueKind = 0x18
	ValueNull    ValueKind = 0x1e
	ValueBoolean ValueKind = 0x1f
)

// Value is an encoded_value: a static field initializer.
type Value struct {
	Kind  ValueKind
	Int   int64  // ValueByte/Short/Int/Long/Boolean payload
	Index uint32 // ValueString/ValueType payload
}

// IntValue returns an int encoded value.
func IntValue(v int64) Value { return Value{Kind: ValueInt, Int: v} }

// BoolValue returns a boolean encoded value.
func BoolValue(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: ValueBoolean, Int: i}
}

// StringValue returns a string encoded value referencing string index idx.
func StringValue(idx uint32) Value { return Value{Kind: ValueString, Index: idx} }

// NullValue returns the null encoded value.
func NullValue() Value { return Value{Kind: ValueNull} }

func (v Value) String() string {
	switch v.Kind {
	case ValueNull:
		return "null"
	case ValueBoolean:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case ValueString:
		return fmt.Sprintf("string@%d", v.Index)
	case ValueType:
		return fmt.Sprintf("type@%d", v.Index)
	default:
		return fmt.Sprintf("%d", v.Int)
	}
}

// appendEncodedValue appends the encoded_value representation of v.
func appendEncodedValue(b []byte, v Value) ([]byte, error) {
	emit := func(bits int64, maxBytes int) {
		// Minimal little-endian, sign-extended byte count (at least one).
		n := 1
		for n < maxBytes {
			trunc := bits << (64 - 8*uint(n)) >> (64 - 8*uint(n))
			if trunc == bits {
				break
			}
			n++
		}
		b = append(b, byte(uint(v.Kind))|byte(n-1)<<5)
		for i := 0; i < n; i++ {
			b = append(b, byte(uint64(bits)>>(8*uint(i))))
		}
	}
	switch v.Kind {
	case ValueByte:
		if v.Int < -128 || v.Int > 127 {
			return nil, fmt.Errorf("dex: byte value %d out of range", v.Int)
		}
		b = append(b, byte(v.Kind), byte(v.Int))
	case ValueShort:
		if v.Int < -32768 || v.Int > 32767 {
			return nil, fmt.Errorf("dex: short value %d out of range", v.Int)
		}
		emit(v.Int, 2)
	case ValueInt:
		if v.Int < -(1<<31) || v.Int >= 1<<31 {
			return nil, fmt.Errorf("dex: int value %d out of range", v.Int)
		}
		emit(v.Int, 4)
	case ValueLong:
		emit(v.Int, 8)
	case ValueString, ValueType:
		// Unsigned index, minimal bytes.
		n := 1
		for n < 4 && v.Index>>(8*uint(n)) != 0 {
			n++
		}
		b = append(b, byte(uint(v.Kind))|byte(n-1)<<5)
		for i := 0; i < n; i++ {
			b = append(b, byte(v.Index>>(8*uint(i))))
		}
	case ValueNull:
		b = append(b, byte(v.Kind))
	case ValueBoolean:
		b = append(b, byte(uint(v.Kind))|byte(v.Int&1)<<5)
	default:
		return nil, fmt.Errorf("dex: unsupported encoded value kind %#x", uint8(v.Kind))
	}
	return b, nil
}

// readEncodedValue parses one encoded_value at off.
func readEncodedValue(b []byte, off int) (Value, int, error) {
	if off >= len(b) {
		return Value{}, off, fmt.Errorf("dex: truncated encoded value")
	}
	head := b[off]
	off++
	kind := ValueKind(head & 0x1f)
	arg := int(head >> 5)
	readBytes := func(n int) (uint64, error) {
		if off+n > len(b) {
			return 0, fmt.Errorf("dex: truncated encoded value payload")
		}
		var bits uint64
		for i := 0; i < n; i++ {
			bits |= uint64(b[off+i]) << (8 * uint(i))
		}
		off += n
		return bits, nil
	}
	switch kind {
	case ValueByte:
		bits, err := readBytes(1)
		if err != nil {
			return Value{}, off, err
		}
		return Value{Kind: kind, Int: int64(int8(bits))}, off, nil
	case ValueShort, ValueInt, ValueLong:
		n := arg + 1
		bits, err := readBytes(n)
		if err != nil {
			return Value{}, off, err
		}
		signed := int64(bits) << (64 - 8*uint(n)) >> (64 - 8*uint(n))
		return Value{Kind: kind, Int: signed}, off, nil
	case ValueString, ValueType:
		bits, err := readBytes(arg + 1)
		if err != nil {
			return Value{}, off, err
		}
		return Value{Kind: kind, Index: uint32(bits)}, off, nil
	case ValueNull:
		return Value{Kind: kind}, off, nil
	case ValueBoolean:
		return Value{Kind: kind, Int: int64(arg & 1)}, off, nil
	default:
		return Value{}, off, fmt.Errorf("dex: unsupported encoded value kind %#x", uint8(kind))
	}
}

// countInsns counts decodable instructions in a code array; payload regions
// are skipped. Undecodable bodies count as zero.
func countInsns(insns []uint16) int {
	n, err := bytecode.Count(insns)
	if err != nil {
		return 0
	}
	return n
}
