package stats

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// A stats struct's field list is the serving side's metric table: a
// counter is declared once, as one exported numeric field carrying its
// json name and (when /metrics exposes it) prom and help tags. Merging
// (Add), seed-averaging (Scale) and the Prometheus exposition
// (WriteProm) are derived from the declaration by reflection, so a new
// field needs no second mention anywhere. The folds run only when
// somebody reads stats — a scrape, a stats document, an experiment's
// seed average — never per operation.
//
// Fields that do not merge by summing (a reads-weighted mean, a
// capacity where -1 means unbounded, a policy name) are fixed up by the
// struct's owner around the one Add call.

// Add adds every exported numeric field of src into the matching field
// of dst, recursing through nested structs and arrays. Strings, slices,
// maps, pointers and unexported fields are left alone.
func Add[T any](dst *T, src T) {
	fold(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), false, 0)
}

// Scale multiplies every exported numeric field of v by f, over the
// same fields Add visits. Integer fields go through float64 and
// truncate toward zero.
func Scale[T any](v *T, f float64) {
	e := reflect.ValueOf(v).Elem()
	fold(e, e, true, f)
}

func fold(dst, src reflect.Value, scale bool, f float64) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			if dst.Type().Field(i).IsExported() {
				fold(dst.Field(i), src.Field(i), scale, f)
			}
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			fold(dst.Index(i), src.Index(i), scale, f)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if scale {
			dst.SetInt(int64(float64(dst.Int()) * f))
		} else {
			dst.SetInt(dst.Int() + src.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if scale {
			dst.SetUint(uint64(float64(dst.Uint()) * f))
		} else {
			dst.SetUint(dst.Uint() + src.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if scale {
			dst.SetFloat(dst.Float() * f)
		} else {
			dst.SetFloat(dst.Float() + src.Float())
		}
	}
}

// WriteProm renders, in declaration order, every field of the struct v
// tagged `prom:"name,counter|gauge" help:"…"` as one Prometheus text
// family: HELP, TYPE and a single unlabelled sample. Integer fields
// print as integers, floats with %g. Untagged fields are skipped.
func WriteProm(w io.Writer, v any) {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		sf := rv.Type().Field(i)
		name, kind, ok := strings.Cut(sf.Tag.Get("prom"), ",")
		if !ok {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n",
			name, sf.Tag.Get("help"), name, kind, name, rv.Field(i).Interface())
	}
}
