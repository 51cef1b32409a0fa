package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"fdpsim/internal/sim"
)

// digestJSON hashes the canonical JSON of v the way the repository's
// engine goldens do: sha256, first 16 bytes in hex. Wall-clock fields must
// already be zeroed.
func digestJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16]), nil
}

// normalize strips from a Result what legitimately differs between a
// plain run and a traced one: the wall-clock duration, the "custom" label
// a wrapped prefetcher is reported under, and the attribution block the
// traced run switches on. label is the prefetcher the lane configured.
func normalize(res *sim.Result, label sim.PrefetcherKind) {
	res.Elapsed = 0
	res.Prefetcher = string(label)
	res.Attribution = nil
}

// resultDigest digests a single-core Result after normalisation.
func resultDigest(res sim.Result, label sim.PrefetcherKind) (string, error) {
	normalize(&res, label)
	return digestJSON(res)
}

// multiDigest digests a multi-core Result after normalising every core.
func multiDigest(res sim.MultiResult, labels []sim.PrefetcherKind) (string, error) {
	res.Cores = append([]sim.CoreResult(nil), res.Cores...)
	for i := range res.Cores {
		normalize(&res.Cores[i].Result, labels[i])
	}
	return digestJSON(res)
}

// pins holds the digests every run with the default seed must reproduce:
// one per lane configuration and one per service job, in job order.
type pins struct {
	Seed  uint64              `json:"seed"`
	Lanes map[string]string   `json:"lanes"`
	Jobs  map[string][]string `json:"jobs"`
}

//go:embed pinned.json
var pinnedJSON []byte

// loadPins parses the embedded pin table.
func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return &p, nil
}

// writePins regenerates the pin table for the default seed from plain
// library runs of every lane and every service job (not through the
// service, so the service's answers are checked against an independent
// computation). Only for deliberate model changes.
func writePins(path string) error {
	p := pins{Seed: defaultSeed, Lanes: map[string]string{}, Jobs: map[string][]string{}}
	for _, w := range workloads {
		for _, l := range w.lanes(defaultSeed) {
			d, _, err := l.run(nil)
			if err != nil {
				return err
			}
			p.Lanes[w.name+"/"+l.name] = d
		}
		for i := range missJobs {
			req := w.job(defaultSeed, i)
			cfg := req.BuildConfig()
			res, err := sim.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s job %d: %w", w.name, i, err)
			}
			d, err := resultDigest(res, cfg.Prefetcher)
			if err != nil {
				return err
			}
			p.Jobs[w.name] = append(p.Jobs[w.name], d)
		}
	}
	raw, err := json.MarshalIndent(p, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
