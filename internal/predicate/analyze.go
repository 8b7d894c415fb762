package predicate

import (
	"math"
)

// Interval is a closed-open style integer interval [Lo, Hi] with inclusive
// bounds; Lo = math.MinInt64 / Hi = math.MaxInt64 encode unboundedness.
// Intervals model the satisfying set of conjunctive comparisons on one
// integer property, e.g. `balance >= 100 and balance < 500`.
type Interval struct {
	Lo, Hi int64
}

// Unbounded is the interval containing every int64.
var Unbounded = Interval{Lo: math.MinInt64, Hi: math.MaxInt64}

// Empty reports whether the interval contains no values.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return v >= iv.Lo && v <= iv.Hi }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo > lo {
		lo = other.Lo
	}
	if other.Hi < hi {
		hi = other.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

// Bound extracts the satisfying interval for expressions that are
// conjunctions of comparisons between a single integer property and integer
// literals, such as the paper's running examples `quantity >= 5` and
// `balance >= 100`. It returns the property name, the interval, and ok=false
// when the expression is not of this restricted shape (disjunctions,
// multiple properties, strings, arithmetic on the property, …).
//
// The promise manager uses Bound to reason about escrow-style promises:
// a set of promises {p >= a_i} over one account is jointly satisfiable
// exactly when the resource value is at least max(a_i) after reserved
// amounts are summed (see internal/escrow and internal/core).
func Bound(e Expr) (prop string, iv Interval, ok bool) {
	iv = Unbounded
	// Fold first so negative literals (parsed as 0-n) become plain literals.
	prop, iv, ok = bound(Fold(e), "", iv)
	if !ok || prop == "" {
		return "", Interval{}, false
	}
	return prop, iv, true
}

func bound(e Expr, prop string, iv Interval) (string, Interval, bool) {
	switch n := e.(type) {
	case *Binary:
		switch n.Op {
		case OpAnd:
			prop, iv, ok := bound(n.L, prop, iv)
			if !ok {
				return "", Interval{}, false
			}
			return bound(n.R, prop, iv)
		case OpEq, OpLt, OpLe, OpGt, OpGe:
			return boundCmp(n, prop, iv)
		default:
			return "", Interval{}, false
		}
	case *Lit:
		// `true` as a conjunct is the identity.
		if b, ok := n.Val.AsBool(); ok && b {
			return prop, iv, true
		}
		return "", Interval{}, false
	default:
		return "", Interval{}, false
	}
}

// boundCmp handles one comparison `ref op lit` or `lit op ref`.
func boundCmp(n *Binary, prop string, iv Interval) (string, Interval, bool) {
	ref, lit, flipped := splitRefLit(n.L, n.R)
	if ref == nil {
		return "", Interval{}, false
	}
	c, isInt := lit.AsInt()
	if !isInt {
		return "", Interval{}, false
	}
	if prop != "" && ref.Name != prop {
		return "", Interval{}, false // mentions a second property
	}
	prop = ref.Name

	op := n.Op
	if flipped {
		// lit op ref  ≡  ref op' lit with the comparison mirrored.
		switch op {
		case OpLt:
			op = OpGt
		case OpLe:
			op = OpGe
		case OpGt:
			op = OpLt
		case OpGe:
			op = OpLe
		}
	}
	var cons Interval
	switch op {
	case OpEq:
		cons = Interval{Lo: c, Hi: c}
	case OpLt:
		if c == math.MinInt64 {
			return prop, Interval{Lo: 1, Hi: 0}, true // empty
		}
		cons = Interval{Lo: math.MinInt64, Hi: c - 1}
	case OpLe:
		cons = Interval{Lo: math.MinInt64, Hi: c}
	case OpGt:
		if c == math.MaxInt64 {
			return prop, Interval{Lo: 1, Hi: 0}, true // empty
		}
		cons = Interval{Lo: c + 1, Hi: math.MaxInt64}
	case OpGe:
		cons = Interval{Lo: c, Hi: math.MaxInt64}
	default:
		return "", Interval{}, false
	}
	return prop, iv.Intersect(cons), true
}

// splitRefLit identifies which side of a comparison is the property
// reference and which the literal. flipped is true when the literal is on
// the left.
func splitRefLit(l, r Expr) (*Ref, Value, bool) {
	if ref, ok := l.(*Ref); ok {
		if lit, ok := r.(*Lit); ok {
			return ref, lit.Val, false
		}
		return nil, Value{}, false
	}
	if lit, ok := l.(*Lit); ok {
		if ref, ok := r.(*Ref); ok {
			return ref, lit.Val, true
		}
	}
	return nil, Value{}, false
}

// Fold performs constant folding: any subexpression without property
// references is evaluated and replaced by its literal value. Expressions
// with evaluation errors (e.g. division by zero) are left intact so the
// error surfaces at evaluation time with full context.
func Fold(e Expr) Expr {
	folded, _ := fold(e)
	return folded
}

func fold(e Expr) (Expr, bool) {
	switch n := e.(type) {
	case *Lit:
		return n, true
	case *Ref:
		return n, false
	case *Not:
		x, constX := fold(n.X)
		out := &Not{X: x}
		if constX {
			if v, err := evalValue(out, MapEnv{}); err == nil {
				return &Lit{Val: v}, true
			}
		}
		return out, false
	case *In:
		x, constX := fold(n.X)
		out := &In{X: x, Set: n.Set}
		if constX {
			if v, err := evalValue(out, MapEnv{}); err == nil {
				return &Lit{Val: v}, true
			}
		}
		return out, false
	case *Binary:
		l, constL := fold(n.L)
		r, constR := fold(n.R)
		out := &Binary{Op: n.Op, L: l, R: r}
		if constL && constR {
			if v, err := evalValue(out, MapEnv{}); err == nil {
				return &Lit{Val: v}, true
			}
		}
		return out, false
	default:
		return e, false
	}
}
