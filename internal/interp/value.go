// Package interp is a reference interpreter for the cc C subset with full
// undefined-behavior detection. It plays the role CompCert's reference
// interpreter plays in the paper (§5.1, §5.4): a trustworthy oracle that
// yields the defined semantics of a test program — or a report that the
// program has no defined semantics — so that miscompilations by the
// compiler under test can be distinguished from false alarms.
//
// Detected undefined behaviors: reads of uninitialized objects, signed
// integer overflow, division/modulo by zero, INT_MIN/-1 division,
// out-of-bounds array and pointer accesses, null and dangling pointer
// dereferences, oversized or negative shift counts, and falling off the end
// of a value-returning function whose value is used.
//
// Concurrency and ownership: the package-level Run is safe to call from any
// goroutine (each call builds a private machine) and its Result is caller-
// owned. A Machine amortizes machine state across sequential runs and is
// strictly single-goroutine; its Results alias machine-owned storage that
// the next Run recycles. Campaign workers hold one Machine each and never
// share it — the pattern every backend in this repository follows: shared
// inputs are immutable (the analyzed AST), mutable execution state is
// per-worker and reset, not reallocated, between variants.
package interp

import (
	"fmt"
	"math"

	"spe/internal/cc"
)

// UBKind classifies undefined behaviors.
type UBKind int

// Undefined behavior kinds.
const (
	UBUninitRead UBKind = iota
	UBDivByZero
	UBSignedOverflow
	UBShift
	UBOutOfBounds
	UBNullDeref
	UBDangling
	UBNoReturnValue
)

var ubNames = map[UBKind]string{
	UBUninitRead:     "read of uninitialized value",
	UBDivByZero:      "division by zero",
	UBSignedOverflow: "signed integer overflow",
	UBShift:          "undefined shift",
	UBOutOfBounds:    "out-of-bounds access",
	UBNullDeref:      "null pointer dereference",
	UBDangling:       "dangling pointer access",
	UBNoReturnValue:  "missing return value",
}

func (k UBKind) String() string { return ubNames[k] }

// UBError reports an undefined behavior with its source position.
type UBError struct {
	Kind UBKind
	Pos  cc.Pos
	Msg  string
}

func (e *UBError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("%s: undefined behavior: %s", e.Pos, e.Kind)
	}
	return fmt.Sprintf("%s: undefined behavior: %s (%s)", e.Pos, e.Kind, e.Msg)
}

// LimitError reports resource exhaustion (step budget or stack depth);
// not undefined behavior, but execution cannot continue. NonTerm marks a
// limit reached by proof rather than by exhaustion: the bytecode oracle
// (internal/refvm) stops a run once it has shown that a loop can make no
// progress, so the run could never have ended with a Defined verdict.
type LimitError struct {
	Msg     string
	NonTerm bool
}

func (e *LimitError) Error() string { return "resource limit: " + e.Msg }

// Object is an allocated memory object: a flat sequence of scalar cells.
type Object struct {
	ID    int
	Cells []Cell
	Live  bool
	Name  string // for diagnostics
	// Persistent objects (globals, static locals, string literals) are
	// never killed on frame exit.
	Persistent bool
}

// Cell is one scalar memory slot.
type Cell struct {
	Val  Value
	Init bool
}

// Pointer is a typed pointer value: an object plus a scalar-cell offset.
// The nil Object represents the null pointer.
type Pointer struct {
	Obj *Object
	Off int
	// Elem is the pointee type (used for pointer arithmetic scaling).
	Elem cc.Type
}

// IsNull reports whether p is the null pointer.
func (p Pointer) IsNull() bool { return p.Obj == nil }

// ValueKind discriminates runtime values.
type ValueKind uint8

// Value kinds.
const (
	VInt ValueKind = iota
	VFloat
	VPtr
)

// Value is a runtime scalar value, packed for the campaign hot path: the
// integer and float payloads share one 64-bit word and the type is a
// *cc.BasicType pointer instead of a cc.Type interface (pointer values
// carry their typing in P.Elem; their basic type is nil). The historical
// 72-byte interface-carrying layout taxed every evaluation step of the
// reference interpreter; TestValueSize pins the packed size so it cannot
// creep back up.
type Value struct {
	bits uint64 // VInt: sign-extended integer; VFloat: IEEE-754 bits
	// typ is the basic C type governing width and signedness; nil for
	// pointers and for values built with non-basic types (which the
	// arithmetic helpers treat exactly like the old non-basic interface
	// values: no truncation, signed, 64-bit wide).
	typ  *cc.BasicType
	P    Pointer
	Kind ValueKind
}

// I returns the integer payload (sign-extended storage). Like the
// historical separate I field, it reads as zero for float and pointer
// values — printf %d of a float argument, for example, must keep printing
// 0, not the float's bit pattern.
func (v Value) I() int64 {
	if v.Kind != VInt {
		return 0
	}
	return int64(v.bits)
}

// F returns the floating payload (zero for non-float values, like the
// historical separate F field).
func (v Value) F() float64 {
	if v.Kind != VFloat {
		return 0
	}
	return math.Float64frombits(v.bits)
}

// Typ returns the C type governing width and signedness (nil for pointer
// values, whose typing lives in P.Elem).
func (v Value) Typ() cc.Type {
	if v.typ == nil {
		return nil
	}
	return v.typ
}

// BasicTyp returns the value's basic type (nil for pointers and values of
// non-basic type).
func (v Value) BasicTyp() *cc.BasicType { return v.typ }

// IntValue builds an integer value of type t, truncating to t's width.
func IntValue(v int64, t cc.Type) Value {
	bt, _ := t.(*cc.BasicType)
	return Value{Kind: VInt, bits: uint64(truncBasic(v, bt)), typ: bt}
}

// RawIntValue builds an integer value of type t without truncating the
// payload to t's width (the minicc VM's seeded truncation-skipping bug
// needs the un-normalized representation).
func RawIntValue(v int64, t cc.Type) Value {
	bt, _ := t.(*cc.BasicType)
	return Value{Kind: VInt, bits: uint64(v), typ: bt}
}

// FloatValue builds a floating value of type t.
func FloatValue(f float64, t cc.Type) Value {
	bt, ok := t.(*cc.BasicType)
	if ok && bt.Kind == cc.Float {
		f = float64(float32(f))
	}
	return Value{Kind: VFloat, bits: math.Float64bits(f), typ: bt}
}

// PtrValue builds a pointer value. The type argument is accepted for
// call-site symmetry with IntValue/FloatValue but not stored: nothing in
// the evaluator consumes a pointer value's own C type — pointer semantics
// (arithmetic scaling, element typing) flow through p.Elem.
func PtrValue(p Pointer, t cc.Type) Value { return Value{Kind: VPtr, P: p} }

// IsZero reports whether the value is scalar zero (used for conditions).
func (v Value) IsZero() bool {
	switch v.Kind {
	case VInt:
		return v.bits == 0
	case VFloat:
		return v.F() == 0
	default:
		return v.P.IsNull()
	}
}

func (v Value) String() string {
	switch v.Kind {
	case VInt:
		return fmt.Sprintf("%d", v.I())
	case VFloat:
		return fmt.Sprintf("%g", v.F())
	default:
		if v.P.IsNull() {
			return "nullptr"
		}
		return fmt.Sprintf("&%s+%d", v.P.Obj.Name, v.P.Off)
	}
}

// truncInt truncates v to the width and signedness of t.
func truncInt(v int64, t cc.Type) int64 {
	bt, _ := t.(*cc.BasicType)
	return truncBasic(v, bt)
}

// truncBasic is truncInt on the basic type directly (nil behaves like the
// historical non-basic case: no truncation).
func truncBasic(v int64, bt *cc.BasicType) int64 {
	if bt == nil {
		return v
	}
	switch bt.Kind {
	case cc.Char:
		return int64(int8(v))
	case cc.UChar:
		return int64(uint8(v))
	case cc.Short:
		return int64(int16(v))
	case cc.UShort:
		return int64(uint16(v))
	case cc.Int:
		return int64(int32(v))
	case cc.UInt:
		return int64(uint32(v))
	case cc.ULong:
		return v // stored as the signed bit pattern
	default:
		return v
	}
}

// isUnsigned reports whether t is an unsigned integer type.
func isUnsigned(t cc.Type) bool {
	bt, ok := t.(*cc.BasicType)
	return ok && bt.IsUnsigned()
}

// isFloatType reports whether t is float or double.
func isFloatType(t cc.Type) bool {
	bt, ok := t.(*cc.BasicType)
	return ok && bt.IsFloat()
}

// widthOf returns the bit width of an integer type.
func widthOf(t cc.Type) uint {
	bt, ok := t.(*cc.BasicType)
	if !ok {
		return 64
	}
	switch bt.Kind {
	case cc.Char, cc.UChar:
		return 8
	case cc.Short, cc.UShort:
		return 16
	case cc.Int, cc.UInt:
		return 32
	default:
		return 64
	}
}

// cellCount returns the number of scalar cells occupied by type t.
func cellCount(t cc.Type) int {
	switch t := t.(type) {
	case *cc.ArrayType:
		return t.Len * cellCount(t.Elem)
	case *cc.StructType:
		n := 0
		for _, f := range t.Fields {
			n += cellCount(f.Type)
		}
		return n
	default:
		return 1
	}
}

// fieldOffset returns the cell offset of field index i within struct t.
func fieldOffset(t *cc.StructType, i int) int {
	off := 0
	for j := 0; j < i; j++ {
		off += cellCount(t.Fields[j].Type)
	}
	return off
}

// scalarType returns the scalar element type at the "bottom" of t (arrays
// and structs flattened); for scalars it is t itself.
func scalarType(t cc.Type) cc.Type {
	switch t := t.(type) {
	case *cc.ArrayType:
		return scalarType(t.Elem)
	default:
		return t
	}
}
