package sql

import (
	"testing"
)

func TestScalarFunctions(t *testing.T) {
	row := mapResolver{"s": "  Hello  ", "n": -7, "f": 2.6, "nul": nil, "z": "zone-1", "u": "日本語"}
	cases := []struct {
		expr string
		want any
	}{
		{`UPPER(z) = 'ZONE-1'`, true},
		{`LOWER('ABC') = 'abc'`, true},
		{`LENGTH(z) = 6`, true},
		{`LENGTH(u) = 3`, true}, // characters, not bytes
		{`LENGTH('é') = 1`, true},
		{`UPPER('é') = 'É'`, true},
		{`TRIM(s) = 'Hello'`, true},
		{`ABS(n) = 7`, true},
		{`ABS(2.5) = 2.5`, true},
		{`ROUND(f) = 3`, true},
		{`ROUND(-2.6) = -3`, true},
		{`ROUND(n) = -7`, true},
		{`COALESCE(nul, 'fallback') = 'fallback'`, true},
		{`COALESCE(z, 'fallback') = 'zone-1'`, true},
		{`CONCAT('a', 1, 'b') = 'a1b'`, true},
		{`UPPER(nul) IS NULL`, true},
		{`ABS(nul) IS NULL`, true},
	}
	for _, c := range cases {
		if got := evalWhere(t, c.expr, row); got != c.want {
			t.Errorf("eval(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestScalarFunctionErrors(t *testing.T) {
	row := mapResolver{"s": "x", "n": 1}
	bad := []string{
		`NOSUCHFUNC(s) = 1`,
		`UPPER(n) = 'X'`,
		`ABS(s) = 1`,
		`UPPER(s, s) = 'X'`,
		`COALESCE() IS NULL`,
	}
	ctx := evalCtxNow(t)
	for _, w := range bad {
		stmt := mustParse(t, `SELECT a FROM t WHERE `+w)
		if _, err := row.eval(ctx, stmt.Where); err == nil {
			t.Errorf("eval(%q) succeeded, want error", w)
		}
	}
}

func evalCtxNow(t *testing.T) *evalCtx {
	t.Helper()
	return &evalCtx{}
}

func TestParseHaving(t *testing.T) {
	stmt := mustParse(t, `SELECT deliveryZone, COUNT(*) FROM t GROUP BY deliveryZone HAVING COUNT(*) > 5 ORDER BY deliveryZone`)
	if stmt.Having == nil {
		t.Fatal("HAVING not parsed")
	}
	if _, err := Parse(`SELECT a FROM t HAVING a > 1`); err == nil {
		t.Fatal("HAVING without GROUP BY/aggregates accepted")
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	f := newFixture(t, 30, liveSnapCfg())
	// zones north/south alternate; both have 15 rows. HAVING cuts on a
	// group-level aggregate.
	res, err := f.ex.Query(`SELECT deliveryZone, COUNT(*) AS n FROM orderinfo GROUP BY deliveryZone HAVING COUNT(*) > 20`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none (no zone exceeds 20)", res.Rows)
	}
	res, err = f.ex.Query(`SELECT deliveryZone FROM orderinfo GROUP BY deliveryZone HAVING COUNT(*) = 15 ORDER BY deliveryZone`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "north" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFunctionsInQueries(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	res, err := f.ex.Query(`SELECT UPPER(deliveryZone) AS zone, ROUND(AVG(customerLat)) AS lat FROM orderinfo GROUP BY deliveryZone ORDER BY zone`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "NORTH" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, ok := res.Rows[0][1].(int64); !ok {
		t.Fatalf("ROUND over AVG returned %T", res.Rows[0][1])
	}
}
