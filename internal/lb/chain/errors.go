package chain

import (
	"fmt"
	"math"
)

// ValidationError reports a malformed chain description or fusion
// configuration. It carries the chain name and the offending field so
// serve handlers can surface an actionable 422 body.
type ValidationError struct {
	// Chain is the name of the chain being validated ("" if unnamed).
	Chain string
	// Field locates the offending field ("ops[1].red", "boundaries", ...).
	Field string
	// Reason explains what is wrong with the field.
	Reason string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	name := e.Chain
	if name == "" {
		name = "chain"
	}
	return fmt.Sprintf("chain: invalid %s %s: %s", name, e.Field, e.Reason)
}

// CapacityError reports an unusable fast-memory capacity handed to a
// bound evaluation — the typed replacement for lb's non-positive-S panic on the
// paths reachable from user-supplied job payloads.
type CapacityError struct {
	// S is the rejected capacity in elements.
	S int64
	// Reason explains why S is unusable.
	Reason string
}

// Error implements the error interface.
func (e *CapacityError) Error() string {
	return fmt.Sprintf("chain: bad capacity %d: %s", e.S, e.Reason)
}

// OverflowError reports int64 overflow in tensor-size arithmetic: the
// typed signal that an extent or element count is too large to reason
// about rather than a silently wrapped bound.
type OverflowError struct {
	// Op is the arithmetic operation that overflowed ("mul" or "add").
	Op string
	// A and B are the operands.
	A, B int64
}

// Error implements the error interface.
func (e *OverflowError) Error() string {
	return fmt.Sprintf("chain: int64 overflow in %d %s %d", e.A, e.Op, e.B)
}

// MulInt64 returns a*b, or an *OverflowError when the product does not
// fit in int64.
func MulInt64(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	if (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, &OverflowError{Op: "mul", A: a, B: b}
	}
	c := a * b
	if c/a != b {
		return 0, &OverflowError{Op: "mul", A: a, B: b}
	}
	return c, nil
}

// Mul3Int64 returns a*b*c with overflow checking at each step.
func Mul3Int64(a, b, c int64) (int64, error) {
	ab, err := MulInt64(a, b)
	if err != nil {
		return 0, err
	}
	return MulInt64(ab, c)
}

// AddInt64 returns a+b, or an *OverflowError when the sum does not fit
// in int64.
func AddInt64(a, b int64) (int64, error) {
	if (b > 0 && a > math.MaxInt64-b) || (b < 0 && a < math.MinInt64-b) {
		return 0, &OverflowError{Op: "add", A: a, B: b}
	}
	return a + b, nil
}

// satAdd adds non-negative quantities, saturating at MaxInt64. Used for
// capacity thresholds, where saturation means "never attainable" — the
// conservative reading for a bound.
func satAdd(a, b int64) int64 {
	v, err := AddInt64(a, b)
	if err != nil {
		return math.MaxInt64
	}
	return v
}

// satMul multiplies non-negative quantities, saturating at MaxInt64.
func satMul(a, b int64) int64 {
	v, err := MulInt64(a, b)
	if err != nil {
		return math.MaxInt64
	}
	return v
}
