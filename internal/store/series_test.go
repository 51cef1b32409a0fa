package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"fdpsim/internal/series"
)

// futureVersionDoc patches a series document's meta frame to a future
// format version, repairing the frame CRC so only the version gate trips.
func futureVersionDoc(t *testing.T, doc []byte) []byte {
	t.Helper()
	const magicLen = 8 // "FDPSERS1"
	body := doc[magicLen:]
	size, n := binary.Uvarint(body)
	payload := append([]byte(nil), body[n+4:n+4+int(size)]...)
	s, err := series.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	current := []byte(fmt.Sprintf(`"version":%d`, s.Meta.Version))
	patched := bytes.Replace(payload, current, []byte(`"version":9`), 1)
	if bytes.Equal(patched, payload) {
		t.Fatal("version field not found in meta payload")
	}
	out := append([]byte(nil), doc[:magicLen+n]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(patched))
	out = append(out, patched...)
	return append(out, body[n+4+int(size):]...)
}

func seriesStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const seriesFP = "fe98dc76ba54fe98dc76ba54fe98dc76ba54fe98dc76ba54fe98dc76ba54fe98"

// encodedSeries builds a small valid series document. Enumerated columns
// (label codes Decode range-checks) stay 0; every other value differs.
func encodedSeries(t *testing.T, n int) []byte {
	t.Helper()
	rec := &series.Recorder{}
	doc, err := series.Encode(rec.Series())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return doc
	}
	s := rec.Series()
	s.Meta.Intervals = n
	s.Meta.Workload = "chaserand"
	s.Meta.Reasons = []string{"fixture"}
	enumerated := map[string]bool{"insertion_pos": true, "accuracy_class": true, "late": true, "polluting": true, "reason": true}
	for i, name := range s.Meta.Metrics {
		col := make([]float64, n)
		for j := range col {
			if !enumerated[name] {
				col[j] = float64(i*n + j)
			}
		}
		s.Columns[i] = col
	}
	doc, err = series.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestSeriesRoundTrip(t *testing.T) {
	s := seriesStore(t)
	doc := encodedSeries(t, 8)
	if err := s.PutSeries(seriesFP, doc); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetSeries(seriesFP)
	if !ok || !bytes.Equal(got, doc) {
		t.Fatalf("GetSeries returned (%d bytes, %v), want the stored document", len(got), ok)
	}

	// Replacement is atomic and total.
	next := encodedSeries(t, 3)
	if err := s.PutSeries(seriesFP, next); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetSeries(seriesFP); !bytes.Equal(got, next) {
		t.Fatal("replacement not visible")
	}
}

func TestSeriesMissAndInvalidKeys(t *testing.T) {
	s := seriesStore(t)
	if _, ok := s.GetSeries(seriesFP); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.PutSeries("../escape", encodedSeries(t, 1)); err == nil {
		t.Fatal("PutSeries accepted a path-escaping key")
	}
	if _, ok := s.GetSeries("../escape"); ok {
		t.Fatal("GetSeries accepted a path-escaping key")
	}
	if err := s.PutSeries(seriesFP, []byte("not a series document")); err == nil {
		t.Fatal("PutSeries accepted an undecodable document")
	}
}

// TestSeriesTruncationDiscarded tears the sidecar at several points: each
// torn file must miss and be unlinked (the Result corruption contract).
func TestSeriesTruncationDiscarded(t *testing.T) {
	s := seriesStore(t)
	doc := encodedSeries(t, 16)
	for _, cut := range []int{0, 4, len(doc) / 2, len(doc) - 1} {
		if err := s.PutSeries(seriesFP, doc); err != nil {
			t.Fatal(err)
		}
		path := s.seriesPath(seriesFP)
		if err := os.WriteFile(path, doc[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.GetSeries(seriesFP); ok {
			t.Fatalf("torn sidecar (cut %d) served", cut)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("torn sidecar (cut %d) not unlinked", cut)
		}
	}
}

// TestSeriesBitFlipsDiscarded flips bits across the document: any flip
// that breaks decoding must miss and unlink. (A flip inside the JSON meta
// frame is caught by that frame's CRC, payload flips by theirs.)
func TestSeriesBitFlipsDiscarded(t *testing.T) {
	s := seriesStore(t)
	doc := encodedSeries(t, 16)
	for i := 0; i < len(doc); i += 7 {
		if err := s.PutSeries(seriesFP, doc); err != nil {
			t.Fatal(err)
		}
		path := s.seriesPath(seriesFP)
		mut := append([]byte(nil), doc...)
		mut[i] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.GetSeries(seriesFP); ok {
			// The only acceptable hit is a mutation Decode genuinely
			// accepts — and then the served bytes must be the file's.
			if _, err := series.Decode(got); err != nil {
				t.Fatalf("bit flip at %d served an undecodable document", i)
			}
			continue
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("bit flip at %d missed without unlinking", i)
		}
	}
}

// TestSeriesVersionSkewLeavesFile: a future-version document is a miss
// but stays on disk for newer readers — damage is unlinked, skew is not.
func TestSeriesVersionSkewLeavesFile(t *testing.T) {
	s := seriesStore(t)
	if err := s.PutSeries(seriesFP, encodedSeries(t, 2)); err != nil {
		t.Fatal(err)
	}
	path := s.seriesPath(seriesFP)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	skewed := futureVersionDoc(t, raw)
	if err := os.WriteFile(path, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSeries(seriesFP); ok {
		t.Fatal("future-version sidecar served")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("version-skewed sidecar was unlinked; should be left for newer readers")
	}
}

// TestSeriesNotCountedByLen pins the extension choice.
func TestSeriesNotCountedByLen(t *testing.T) {
	s := seriesStore(t)
	if err := s.PutSeries(seriesFP, encodedSeries(t, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after storing only a series, want 0", got)
	}
}
