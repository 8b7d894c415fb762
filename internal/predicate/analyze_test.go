package predicate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoundSimple(t *testing.T) {
	prop, iv, ok := Bound(MustParse("balance >= 100"))
	if !ok || prop != "balance" {
		t.Fatalf("Bound: prop=%q ok=%v", prop, ok)
	}
	if iv.Lo != 100 || iv.Hi != math.MaxInt64 {
		t.Fatalf("interval = %+v", iv)
	}
}

func TestBoundConjunction(t *testing.T) {
	prop, iv, ok := Bound(MustParse("q >= 5 and q < 20 and q != 0 or false"))
	// The trailing "or false" makes it a disjunction — not the Bound shape.
	if ok {
		t.Fatalf("Bound accepted disjunction: %q %+v", prop, iv)
	}
	prop, iv, ok = Bound(MustParse("q >= 5 and q < 20"))
	if !ok || prop != "q" {
		t.Fatalf("Bound: prop=%q ok=%v", prop, ok)
	}
	if iv.Lo != 5 || iv.Hi != 19 {
		t.Fatalf("interval = %+v, want [5,19]", iv)
	}
}

func TestBoundFlipped(t *testing.T) {
	prop, iv, ok := Bound(MustParse("100 <= balance"))
	if !ok || prop != "balance" || iv.Lo != 100 {
		t.Fatalf("flipped Bound: %q %+v %v", prop, iv, ok)
	}
	_, iv, ok = Bound(MustParse("20 > q and 5 <= q"))
	if !ok || iv.Lo != 5 || iv.Hi != 19 {
		t.Fatalf("flipped conj: %+v %v", iv, ok)
	}
}

func TestBoundEquality(t *testing.T) {
	_, iv, ok := Bound(MustParse("floor = 5"))
	if !ok || iv.Lo != 5 || iv.Hi != 5 {
		t.Fatalf("eq Bound: %+v %v", iv, ok)
	}
}

func TestBoundEmptyInterval(t *testing.T) {
	_, iv, ok := Bound(MustParse("q >= 10 and q <= 5"))
	if !ok {
		t.Fatal("conjunction should still be in the Bound fragment")
	}
	if !iv.Empty() {
		t.Fatalf("interval %+v should be empty", iv)
	}
}

func TestBoundRejectsNonFragment(t *testing.T) {
	cases := []string{
		"a >= 1 and b >= 2", // two properties
		`name = "x"`,        // string literal
		"a + 1 >= 2",        // arithmetic on property
		"a >= 1 or a <= 5",  // disjunction
		"not (a >= 1)",      // negation
		"a != 3",            // != has a hole, not an interval
		"a in (1, 2)",       // membership
		"true and false",    // no property at all (false conjunct)
		"a >= 1 and false",  // boolean literal false conjunct
	}
	for _, src := range cases {
		if prop, iv, ok := Bound(MustParse(src)); ok {
			t.Errorf("Bound(%q) accepted: %q %+v", src, prop, iv)
		}
	}
}

func TestBoundTrueConjunctIdentity(t *testing.T) {
	prop, iv, ok := Bound(MustParse("true and q >= 3"))
	if !ok || prop != "q" || iv.Lo != 3 {
		t.Fatalf("true-conjunct Bound: %q %+v %v", prop, iv, ok)
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{Lo: 0, Hi: 10}
	b := Interval{Lo: 5, Hi: 20}
	got := a.Intersect(b)
	if got.Lo != 5 || got.Hi != 10 {
		t.Fatalf("Intersect = %+v", got)
	}
	if !got.Contains(5) || !got.Contains(10) || got.Contains(11) {
		t.Fatal("Contains wrong")
	}
	if (Interval{Lo: 3, Hi: 2}).Empty() != true {
		t.Fatal("Empty wrong")
	}
}

func TestFoldConstants(t *testing.T) {
	e := Fold(MustParse("q >= 2 + 3"))
	b, ok := e.(*Binary)
	if !ok {
		t.Fatalf("fold result %T", e)
	}
	lit, ok := b.R.(*Lit)
	if !ok || !lit.Val.Equal(Int(5)) {
		t.Fatalf("folded right = %v, want 5", b.R)
	}
}

func TestFoldFullyConstant(t *testing.T) {
	e := Fold(MustParse("1 + 2 = 3"))
	lit, ok := e.(*Lit)
	if !ok {
		t.Fatalf("fold result %T, want Lit", e)
	}
	if b, _ := lit.Val.AsBool(); !b {
		t.Fatal("folded to false")
	}
}

func TestFoldPreservesErrors(t *testing.T) {
	// 1/0 cannot fold; the error must still surface at eval time.
	e := Fold(MustParse("1/0 = 1"))
	if _, ok := e.(*Lit); ok {
		t.Fatal("1/0 folded to literal")
	}
	if _, err := Eval(e, MapEnv{}); err == nil {
		t.Fatal("folded 1/0 lost its evaluation error")
	}
}

func TestFoldInAndNot(t *testing.T) {
	e := Fold(MustParse(`"a" in ("a", "b")`))
	if lit, ok := e.(*Lit); !ok {
		t.Fatalf("in fold: %T", e)
	} else if b, _ := lit.Val.AsBool(); !b {
		t.Fatal("in fold value")
	}
	e = Fold(MustParse("not false"))
	if lit, ok := e.(*Lit); !ok {
		t.Fatalf("not fold: %T", e)
	} else if b, _ := lit.Val.AsBool(); !b {
		t.Fatal("not fold value")
	}
}

// genExpr builds a random expression over properties p0..p3 (ints) and
// f0..f1 (bools) with the given depth budget.
func genExpr(r *rand.Rand, depth int) Expr {
	intProps := []string{"p0", "p1", "p2", "p3"}
	boolProps := []string{"f0", "f1"}
	if depth <= 0 {
		// Leaf: comparison or bool ref.
		if r.Intn(4) == 0 {
			return &Ref{Name: boolProps[r.Intn(len(boolProps))]}
		}
		ops := []BinOp{OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe}
		return &Binary{
			Op: ops[r.Intn(len(ops))],
			L:  &Ref{Name: intProps[r.Intn(len(intProps))]},
			R:  &Lit{Val: Int(int64(r.Intn(21) - 10))},
		}
	}
	switch r.Intn(4) {
	case 0:
		return &Not{X: genExpr(r, depth-1)}
	case 1:
		return &Binary{Op: OpAnd, L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	case 2:
		return &Binary{Op: OpOr, L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	default:
		set := make([]Value, 1+r.Intn(3))
		for i := range set {
			set[i] = Int(int64(r.Intn(21) - 10))
		}
		return &In{X: &Ref{Name: intProps[r.Intn(len(intProps))]}, Set: set}
	}
}

func randEnv(r *rand.Rand) MapEnv {
	return MapEnv{
		"p0": Int(int64(r.Intn(21) - 10)),
		"p1": Int(int64(r.Intn(21) - 10)),
		"p2": Int(int64(r.Intn(21) - 10)),
		"p3": Int(int64(r.Intn(21) - 10)),
		"f0": Bool(r.Intn(2) == 0),
		"f1": Bool(r.Intn(2) == 0),
	}
}

// TestQuickPrintParseEvalAgree is the core property test: for random
// expressions, String() then Parse() yields an expression with identical
// evaluation behaviour on random environments.
func TestQuickPrintParseEvalAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e1 := genExpr(r, 3)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Logf("re-parse of %q failed: %v", e1.String(), err)
			return false
		}
		for i := 0; i < 8; i++ {
			env := randEnv(r)
			v1, err1 := Eval(e1, env)
			v2, err2 := Eval(e2, env)
			if (err1 == nil) != (err2 == nil) || v1 != v2 {
				t.Logf("disagree on %q: (%v,%v) vs (%v,%v)", e1.String(), v1, err1, v2, err2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFoldPreservesSemantics: folding never changes evaluation results.
func TestQuickFoldPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 3)
		folded := Fold(e)
		for i := 0; i < 8; i++ {
			env := randEnv(r)
			v1, err1 := Eval(e, env)
			v2, err2 := Eval(folded, env)
			if (err1 == nil) != (err2 == nil) || v1 != v2 {
				t.Logf("fold changed %q -> %q: (%v,%v) vs (%v,%v)",
					e.String(), folded.String(), v1, err1, v2, err2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBoundSoundness: when Bound extracts an interval, membership in
// the interval coincides with predicate truth.
func TestQuickBoundSoundness(t *testing.T) {
	ops := []string{">=", "<=", ">", "<", "="}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Build a random conjunction of 1-3 comparisons on one property.
		n := 1 + r.Intn(3)
		src := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				src += " and "
			}
			src += "q " + ops[r.Intn(len(ops))] + " " + Int(int64(r.Intn(41)-20)).String()
		}
		e := MustParse(src)
		prop, iv, ok := Bound(e)
		if !ok || prop != "q" {
			t.Logf("Bound(%q) rejected", src)
			return false
		}
		for v := int64(-25); v <= 25; v++ {
			truth, err := Eval(e, MapEnv{"q": Int(v)})
			if err != nil {
				t.Logf("eval error: %v", err)
				return false
			}
			if truth != iv.Contains(v) {
				t.Logf("Bound(%q) = %+v disagrees at q=%d (eval=%v)", src, iv, v, truth)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareAndString(t *testing.T) {
	if _, err := Int(1).Compare(Str("a")); err == nil {
		t.Fatal("cross-kind compare should error")
	}
	if c, _ := Str("a").Compare(Str("b")); c != -1 {
		t.Fatal("string compare")
	}
	if c, _ := Bool(true).Compare(Bool(false)); c != 1 {
		t.Fatal("bool compare")
	}
	if Int(5).String() != "5" || Str("x").String() != `"x"` || Bool(true).String() != "true" {
		t.Fatal("value String()")
	}
	if Int(1).Equal(Bool(true)) {
		t.Fatal("cross-kind Equal should be false")
	}
	if KindInt.String() != "int" || KindString.String() != "string" || KindBool.String() != "bool" {
		t.Fatal("kind names")
	}
}
