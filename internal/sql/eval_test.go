package sql

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"

	"squery/internal/core"
	"squery/internal/kv"
)

// mapResolver is one row of named values.
type mapResolver map[string]any

// eval evaluates e over the row as a batch of one, its columns unbound and
// read by name.
func (m mapResolver) eval(ctx *evalCtx, e Expr) (any, error) {
	b := newBatch(make([]tableSrc, 1), &scratch{})
	b.cols[0], b.n = []core.TableRow{{Value: kv.MapRow(m)}}, 1
	out := make([]datum, 1)
	err := ctx.evalBatch(e, &b, ident[:1], out)
	return out[0].box(), err
}

func evalWhere(t *testing.T, where string, row mapResolver) any {
	t.Helper()
	stmt := mustParse(t, `SELECT a FROM t WHERE `+where)
	ctx := &evalCtx{now: time.Now()}
	v, err := row.eval(ctx, stmt.Where)
	if err != nil {
		t.Fatalf("eval(%q): %v", where, err)
	}
	return v
}

func TestEvalComparisons(t *testing.T) {
	row := mapResolver{"x": 5, "s": "abc", "f": 2.5, "b": true}
	cases := []struct {
		where string
		want  any
	}{
		{`x = 5`, true},
		{`x != 5`, false},
		{`x < 6`, true},
		{`x <= 5`, true},
		{`x > 5`, false},
		{`x >= 6`, false},
		{`x <> 4`, true},
		{`s = 'abc'`, true},
		{`s < 'abd'`, true},
		{`f > 2`, true},
		{`f = 2.5`, true},
		{`b = TRUE`, true},
		{`x = 5 AND s = 'abc'`, true},
		{`x = 4 OR s = 'abc'`, true},
		{`NOT x = 4`, true},
		{`x + 1 = 6`, true},
		{`x * 2 = 10`, true},
		{`x - 7 = -2`, true},
		{`x / 2 = 2.5`, true},
		{`x % 2 = 1`, true},
		{`-x = -5`, true},
	}
	for _, c := range cases {
		if got := evalWhere(t, c.where, row); got != c.want {
			t.Errorf("eval(%q) = %v, want %v", c.where, got, c.want)
		}
	}
}

func TestEvalIntFloatCoercion(t *testing.T) {
	row := mapResolver{"i": int64(3), "i32": int32(3), "u": uint64(3), "f": 3.0}
	for _, w := range []string{`i = f`, `i32 = 3`, `u = 3`, `i = i32`, `f = u`} {
		if got := evalWhere(t, w, row); got != true {
			t.Errorf("eval(%q) = %v, want true", w, got)
		}
	}
	// A uint64 at or above 2^63 compares by its unsigned value, not as the
	// negative int64 its bits spell.
	big := mapResolver{"u": uint64(1) << 63, "m": ^uint64(0), "z": int64(0), "f": -1.5}
	for w, want := range map[string]bool{
		`u > 0`: true, `u > z`: true, `u < 0`: false, `u > f`: true, `z < u`: true,
		`m > u`: true, `u >= 9000000000000000000`: true, `u BETWEEN 1 AND m`: true,
	} {
		if got := evalWhere(t, w, big); got != want {
			t.Errorf("eval(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestEvalNullSemantics(t *testing.T) {
	row := mapResolver{"n": nil, "x": 1}
	cases := []struct {
		where string
		want  any
	}{
		{`n IS NULL`, true},
		{`n IS NOT NULL`, false},
		{`x IS NULL`, false},
		{`n = 1`, nil}, // comparisons with NULL are NULL
		{`n = 1 AND x = 1`, nil},
		{`n = 1 OR x = 1`, true},   // TRUE OR NULL = TRUE
		{`n = 1 AND x = 2`, false}, // FALSE AND NULL = FALSE
		{`-n IS NULL`, true},       // negating NULL is NULL
		{`-n = -1`, nil},
	}
	for _, c := range cases {
		if got := evalWhere(t, c.where, row); got != c.want {
			t.Errorf("eval(%q) = %v, want %v", c.where, got, c.want)
		}
	}
}

func TestEvalInBetweenLike(t *testing.T) {
	row := mapResolver{"s": "VENDOR_ACCEPTED", "x": 5}
	cases := []struct {
		where string
		want  any
	}{
		{`s IN ('NOTIFIED', 'VENDOR_ACCEPTED')`, true},
		{`s NOT IN ('NOTIFIED', 'ACCEPTED')`, true},
		{`x IN (1, 2, 3)`, false},
		{`x BETWEEN 1 AND 5`, true},
		{`x BETWEEN 6 AND 9`, false},
		{`x NOT BETWEEN 6 AND 9`, true},
		{`s LIKE 'VENDOR%'`, true},
		{`s LIKE '%ACCEPTED'`, true},
		{`s LIKE '%DOR_ACC%'`, true},
		{`s LIKE 'V_NDOR%'`, true},
		{`s LIKE 'X%'`, false},
		{`s NOT LIKE 'X%'`, true},
	}
	for _, c := range cases {
		if got := evalWhere(t, c.where, row); got != c.want {
			t.Errorf("eval(%q) = %v, want %v", c.where, got, c.want)
		}
	}
}

func TestEvalTimestamps(t *testing.T) {
	past := time.Now().Add(-time.Hour)
	future := time.Now().Add(time.Hour)
	row := mapResolver{"past": past, "future": future}
	if got := evalWhere(t, `past < LOCALTIMESTAMP`, row); got != true {
		t.Errorf("past < now = %v", got)
	}
	if got := evalWhere(t, `future < LOCALTIMESTAMP`, row); got != false {
		t.Errorf("future < now = %v", got)
	}
	if got := evalWhere(t, `past < future`, row); got != true {
		t.Errorf("past < future = %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	ctx := &evalCtx{now: time.Now()}
	row := mapResolver{"s": "str", "x": 1}
	bad := []string{
		`nosuchcol = 1`,
		`s < 5`,
		`s + 1 = 2`,
		`x / 0 = 1`,
		`x % 0 = 1`,
	}
	for _, w := range bad {
		stmt := mustParse(t, `SELECT a FROM t WHERE `+w)
		if _, err := row.eval(ctx, stmt.Where); err == nil {
			t.Errorf("eval(%q) succeeded, want error", w)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%%", true},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ppx", false},
		// _ is one character, not one byte.
		{"é", "_", true},
		{"é", "__", false},
		{"añb", "a_b", true},
		{"日本語", "日_語", true},
		{"日本語", "%語", true},
		{"日本語", "_本%", true},
		{"日本語", "___", true},
		{"日本語", "____", false},
		// % in the pattern is a wildcard even where s has a literal %.
		{"%ab", "%b", true},
		{"a%b", "a%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

// Property: compare is antisymmetric and consistent with equality for
// integers.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int32) bool {
		c1, err1 := compare(int(a), int64(b))
		c2, err2 := compare(int64(b), int(a))
		if err1 != nil || err2 != nil {
			return false
		}
		if c1 != -c2 {
			return false
		}
		return (a == b) == (c1 == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: over strings drawn from an alphabet of one-, two-, three- and
// four-byte characters, likeMatch with pattern == the string itself (no
// wildcards in it) is true, its first character followed by % matches,
// and one _ per character matches while one _ fewer or more does not.
func TestLikeProperties(t *testing.T) {
	alphabet := []rune{'a', 'b', 'é', 'ß', '日', '語', '😀'}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteRune(alphabet[int(p)%len(alphabet)])
		}
		s := b.String()
		if !likeMatch(s, s) {
			return false
		}
		n := utf8.RuneCountInString(s)
		if n > 0 {
			_, size := utf8.DecodeRuneInString(s)
			if !likeMatch(s, s[:size]+"%") {
				return false
			}
			if likeMatch(s, strings.Repeat("_", n-1)) {
				return false
			}
		}
		return likeMatch(s, strings.Repeat("_", n)) && !likeMatch(s, strings.Repeat("_", n+1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
