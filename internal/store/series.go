package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fdpsim/internal/series"
)

// Interval-timeseries sidecars (internal/series binary documents) are
// stored next to their Result under <dir>/<fp[:2]>/<fp>.series.bin: the
// one per-interval artifact of a run, from which the decision trace also
// renders. A sidecar is optional, never served without verifying, and
// discarded on damage. The document is self-checking (magic, per-frame
// CRC-32, footer), so no extra header wraps it — the file is the
// series.Encode output verbatim and GetSeries bytes stream straight out
// of an HTTP handler. The ".series.bin" extension keeps Len, which counts
// ".json" entries, honest about how many Results the store holds.

func (s *Store) seriesPath(fp string) string {
	return filepath.Join(s.dir, fp[:2], fp+".series.bin")
}

// PutSeries stores an encoded interval-timeseries document under a
// fingerprint, atomically replacing any previous one. The document must
// decode — a caller cannot persist bytes GetSeries would then discard.
func (s *Store) PutSeries(fp string, doc []byte) error {
	if !validFP(fp) {
		return fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	if _, err := series.Decode(doc); err != nil {
		return fmt.Errorf("store: refusing to persist series: %w", err)
	}
	return writeAtomic(s.seriesPath(fp), fp, doc)
}

// GetSeries returns the stored series document for a fingerprint. A
// missing, torn, or CRC-failed sidecar is a miss; corrupt files are
// unlinked like corrupt Results. A document from another
// format version is a miss without the unlink (stale reader, not
// damage — a newer build can still serve it).
func (s *Store) GetSeries(fp string) ([]byte, bool) {
	if !validFP(fp) {
		return nil, false
	}
	raw, err := os.ReadFile(s.seriesPath(fp))
	if err != nil {
		return nil, false
	}
	if _, err := series.Decode(raw); err != nil {
		if errors.Is(err, series.ErrCorrupt) {
			s.discardSeries(fp)
		}
		return nil, false
	}
	return raw, true
}

func (s *Store) discardSeries(fp string) { os.Remove(s.seriesPath(fp)) }
