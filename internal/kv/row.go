package kv

import (
	"reflect"
	"sort"

	"squery/internal/wire"
)

// Row is the contract a state object fulfils to be queryable by column
// name. The paper stores arbitrary objects (complex Java objects) whose
// fields the IMDG SQL engine projects; here, objects either implement Row
// directly or are adapted via AsRow (maps and structs work out of the box).
type Row interface {
	// Field returns the named column's value and whether it exists.
	Field(name string) (any, bool)
	// Columns returns the column names, sorted.
	Columns() []string
}

// MapRow adapts a map of column name to value as a Row.
type MapRow map[string]any

// Field implements Row.
func (m MapRow) Field(name string) (any, bool) {
	v, ok := m[name]
	return v, ok
}

// Columns implements Row.
func (m MapRow) Columns() []string {
	cols := make([]string, 0, len(m))
	for c := range m {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// structRow adapts a struct value as a Row using reflection over the
// per-type schema the wire codec also encodes from — one layout, derived
// once per type.
type structRow struct {
	v      reflect.Value
	schema *wire.Schema
}

func (r structRow) Field(name string) (any, bool) {
	i, ok := r.schema.FieldIndex(name)
	if !ok {
		return nil, false
	}
	return r.v.Field(i).Interface(), true
}

func (r structRow) Columns() []string { return r.schema.Columns() }

// scalarRow exposes a bare scalar value as a single column named "value".
type scalarRow struct{ v any }

func (r scalarRow) Field(name string) (any, bool) {
	if name == "value" {
		return r.v, true
	}
	return nil, false
}

func (r scalarRow) Columns() []string { return []string{"value"} }

// AsRow adapts an arbitrary state object to a Row:
//   - values already implementing Row are returned as-is;
//   - map[string]any becomes a MapRow;
//   - structs (and pointers to structs) expose their exported fields as
//     columns, lower-camel-cased, overridable with a `col:"name"` tag;
//   - anything else becomes a single-column row named "value".
func AsRow(v any) Row {
	switch x := v.(type) {
	case Row:
		return x
	case map[string]any:
		return MapRow(x)
	}
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return scalarRow{v: nil}
		}
		rv = rv.Elem()
	}
	if rv.Kind() == reflect.Struct {
		return structRow{v: rv, schema: wire.SchemaOf(rv.Type())}
	}
	return scalarRow{v: v}
}
