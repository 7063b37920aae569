package trace

import (
	"reflect"
	"testing"
)

// TestCloneContinuesIdentically: a clone taken mid-stream produces the
// accesses a never-cloned generator produces from that point, for every
// pattern, and advancing the clone leaves the original where it was.
func TestCloneContinuesIdentically(t *testing.T) {
	for p := PatternStream; p <= PatternPageLocal; p++ {
		t.Run(p.String(), func(t *testing.T) {
			prof := miniProfile(p)
			prof.HotProb, prof.HotFrac, prof.SpatialBurst = 0.6, 0.1, 3
			orig, ref := NewGenerator(prof, 11, 1), NewGenerator(prof, 11, 1)
			for i := 0; i < 777; i++ { // an odd count leaves the bursts mid-flight
				orig.Next()
				ref.Next()
			}
			clone := orig.Clone()
			want := make([]Access, 10_000)
			for i := range want {
				want[i] = ref.Next()
			}
			// The clone first, to its end: the original must not have moved.
			for i, w := range want {
				if got := clone.Next(); got != w {
					t.Fatalf("clone access %d = %+v, want %+v", i, got, w)
				}
			}
			for i, w := range want {
				if got := orig.Next(); got != w {
					t.Fatalf("original access %d after the clone ran = %+v, want %+v", i, got, w)
				}
			}
		})
	}
}

// TestCloneSourceIsFlat guards Clone's copy of math/rand's source: it is a
// copy only while the value behind the rand.Source holds its state inline.
// A Go release that gives the source a pointer, slice or map fails here
// instead of letting a clone share state with its original.
func TestCloneSourceIsFlat(t *testing.T) {
	src := reflect.TypeOf(NewGenerator(miniProfile(PatternRandom), 1, 0).src)
	if src.Kind() != reflect.Pointer {
		t.Fatalf("rand.NewSource returns a %v, Clone expects a pointer to the state", src.Kind())
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %v: a shallow copy of the source would share it", path, ty.Kind())
		}
	}
	walk(src.Elem().String(), src.Elem())
}
