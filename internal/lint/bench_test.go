package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkRoamvet measures a full-module run of the whole suite — one
// `go list -export`, type-checking every module package against that
// export data, and all eight analyzers including the module-wide lock
// graph — which is exactly what `make lint` pays on every push.
// `make lint` enforces the wall-clock budget in CI; this benchmark is
// where a regression gets localized.
func BenchmarkRoamvet(b *testing.B) {
	analyzers := Analyzers()
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader(filepath.Join("..", ".."))
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.LoadAll()
		if err != nil {
			b.Fatal(err)
		}
		diags, _ := CheckModule(pkgs, analyzers)
		if len(diags) != 0 {
			b.Fatalf("tree is not lint-clean: %d findings, first: %s", len(diags), diags[0])
		}
	}
}
