package spec

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse hammers the spec parser, which fdpserved runs on request
// bodies: arbitrary JSON or YAML-subset input must never panic, every
// rejection must wrap ErrInvalid, and a spec that parses must survive a
// round trip through its canonical JSON with the same canonical bytes
// (fingerprints key on them).
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("testdata/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed specs in testdata (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		sp, err := Parse(data)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		canon, err := sp.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(canon)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection %v does not wrap ErrInvalid", err)
			}
			return
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatalf("accepted spec has no canonical form: %v", err)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		canon2, err := again.Canonical()
		if err != nil {
			t.Fatalf("re-parsed spec has no canonical form: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form changed across a round trip:\n%s\n%s", canon, canon2)
		}
	})
}
