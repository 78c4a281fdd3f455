package egraph

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestStorageHoldsNoPointer pins the pointer-free layout of values and
// rows: copying a Value into bindings, match buffers or a table's
// argument block must not run a GC write barrier, and the collector must
// have nothing to scan in a table's rows or argument blocks. A field of a
// pointer-carrying kind (pointer, slice, map, string, interface, func,
// chan) anywhere inside either type fails the test, as does a Value wider
// than 16 bytes.
func TestStorageHoldsNoPointer(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Value{}), reflect.TypeOf(row{}), reflect.TypeOf(colSlot{})} {
		if path, ok := pointerPath(typ, typ.Name()); ok {
			t.Errorf("%s carries a pointer at %s", typ.Name(), path)
		}
	}
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("Value is %d bytes, want 16", n)
	}
}

// pointerPath returns the path of the first pointer-carrying part of typ.
func pointerPath(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerPath(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Array:
		return pointerPath(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return path + " (" + typ.Kind().String() + ")", true
	default:
		return "", false
	}
}
