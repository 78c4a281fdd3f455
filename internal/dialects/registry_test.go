package dialects

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dialegg/internal/mlir"
)

// TestSharedRegistry: NewRegistry hands every caller one frozen registry,
// registering on it panics, and goroutines parsing and printing with it at
// once get exactly the serial output (run under -race, this also shows the
// shared registry is only read).
func TestSharedRegistry(t *testing.T) {
	reg := NewRegistry()
	if NewRegistry() != reg {
		t.Fatal("two NewRegistry calls returned different registries")
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "test.extra") {
				t.Errorf("Register on the shared registry: panic %q, want one naming test.extra", msg)
			}
		}()
		reg.Register(&mlir.OpDef{Name: "test.extra"})
	}()
	if _, ok := reg.Lookup("test.extra"); ok {
		t.Error("the refused registration is visible")
	}

	files, err := filepath.Glob("../dialegg/testdata/*.mlir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no test modules: %v", err)
	}
	canonical := func(src string) (string, error) {
		m, err := mlir.ParseModule(src, NewRegistry())
		if err != nil {
			return "", err
		}
		return mlir.PrintModuleCanonical(m, NewRegistry()), nil
	}
	srcs := make([]string, len(files))
	want := make([]string, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = string(b)
		if want[i], err = canonical(srcs[i]); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, src := range srcs {
				if got, err := canonical(src); err != nil || got != want[i] {
					t.Errorf("%s: concurrent canonical print differs from the serial one (%v)", files[i], err)
				}
			}
		}()
	}
	wg.Wait()
}
