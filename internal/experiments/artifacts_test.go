package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactsPinned is the paper, pinned: every file WriteAll exports
// at seed 42 and the default campaign sizes hashes to the value recorded
// in testdata/artifacts_seed42.sha256, serially and on every core. The
// manifest is in sha256sum's format under one '#' line naming the commit
// it was generated at; a change that means to move an artifact
// regenerates it with
//
//	roam-experiments -seed 42 -out d && (cd d && sha256sum *)
//
// and says in CHANGES.md which artifacts moved and why.
func TestArtifactsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/artifacts_seed42.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok && !strings.HasPrefix(line, "#") {
			want[name] = sum
		}
	}
	for _, workers := range []int{1, 0} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		files, err := r.WriteAll(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(want) {
			t.Errorf("workers %d: %d artifacts written, manifest pins %d", workers, len(files), len(want))
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got, name := hex.EncodeToString(sum[:]), filepath.Base(f); got != want[name] {
				t.Errorf("workers %d: %s moved: sha256 %s, pinned %q", workers, name, got, want[name])
			}
		}
	}
}
