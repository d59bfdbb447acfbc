package testutil

import "reflect"

// FillCounters sets every int64 field of the struct p points to — fields of
// nested and embedded structs included, in declaration order — to next(). A
// test that fills a snapshot this way and follows it through a layer finds
// every counter the layer drops, including ones declared after the test was
// written.
func FillCounters(p any, next func() int64) {
	fillCounters(reflect.ValueOf(p).Elem(), next)
}

func fillCounters(v reflect.Value, next func() int64) {
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(next())
		case reflect.Struct:
			fillCounters(f, next)
		}
	}
}
