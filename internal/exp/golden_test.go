package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files from the current code instead of
// comparing against them: go test ./internal/exp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden CSVs under testdata/")

// TestGoldenCSV compares every registered experiment's CSV output at
// Default() with its committed golden file. A difference means the code changed the
// published numbers; regenerate with -update only when that is intended,
// and say so in the change log.
func TestGoldenCSV(t *testing.T) {
	for _, id := range IDs() {
		if id == "tab1" {
			continue // tab1's CSV carries wall-time columns
		}
		t.Run(id, func(t *testing.T) {
			run, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(Default())
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := res.FprintCSV(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".csv")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s output differs from %s:\n--- got\n%s--- want\n%s", id, path, got.Bytes(), want)
			}
		})
	}
}
