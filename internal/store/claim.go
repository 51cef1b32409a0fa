package store

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Claims turn the content-addressed store into a work-coordination
// surface for a fleet of fdpserved processes sharing one directory: a
// worker that wants to execute a fingerprint first claims it, so the
// common path runs every fingerprint exactly once across the fleet, and
// fingerprint idempotency (atomic Put, deterministic simulations) makes
// the uncommon paths — a stolen lease whose original owner was merely
// slow, a crash between Put and Release — harmless duplicate work rather
// than wrong results. The protocol is exactly-once results over
// at-least-once execution.
//
// A claim is a generation-numbered sidecar file
// <dir>/<fp[:2]>/<fp>.claim<gen> holding the owner, a random nonce and a
// lease expiry. Ownership belongs to the highest generation with a live
// lease, and every ownership transition is an exclusive create — a
// complete temp file hard-linked to the generation name, which POSIX
// serializes and which no reader can observe half-written — so two racing
// workers can never both acquire:
//
//   - fresh acquire: create generation 0 exclusively;
//   - steal (highest generation expired, or unparsable for longer than
//     tornClaimGrace): create generation highest+1 exclusively —
//     concurrent thieves race one link and exactly one wins;
//   - renew/release: rewrite or remove only one's own generation file,
//     which no thief ever touches (thieves only create the next one).
//
// Lease expiry is wall-clock, so fleet machines need loosely synchronized
// clocks (skew well under the lease, which NTP is for the default 30s).

// ClaimState is the outcome of a Claim call.
type ClaimState int

const (
	// ClaimAcquired: the caller now owns the fingerprint and must execute
	// it, Put the result, and Release the claim.
	ClaimAcquired ClaimState = iota
	// ClaimHeld: another live worker owns the lease; back off until
	// ClaimInfo.Expires (a result may appear sooner).
	ClaimHeld
	// ClaimDone: a result for the fingerprint is already on disk; read it
	// with Get instead of executing.
	ClaimDone
)

// String makes test failures and log lines readable.
func (c ClaimState) String() string {
	switch c {
	case ClaimAcquired:
		return "acquired"
	case ClaimHeld:
		return "held"
	case ClaimDone:
		return "done"
	}
	return fmt.Sprintf("ClaimState(%d)", int(c))
}

// ClaimInfo describes a claim's holder.
type ClaimInfo struct {
	Version int       `json:"version"`
	Owner   string    `json:"owner"`
	Nonce   string    `json:"nonce"`
	Expires time.Time `json:"expires"`
	// Trace carries the fabric trace ID of the job the owner is executing,
	// so a worker adopting or waiting on this claim can link its spans to
	// the same trace as the executor's.
	Trace string `json:"trace,omitempty"`

	// Stolen marks an acquisition that superseded an expired or corrupt
	// claim rather than creating a fresh one. Not persisted.
	Stolen bool `json:"-"`
	gen    int
}

// Gen returns the claim's generation number: 0 for a fresh acquire,
// incremented by each steal. The lease generation in provenance ledger
// entries is this value.
func (c ClaimInfo) Gen() int { return c.gen }

const claimSuffix = ".claim"

// tornClaimGrace is how long an unparsable claim file counts as held.
// Published claims are always complete, so one that does not parse was
// torn by a crash or is still being written by an older worker that
// creates the file before writing it; stealing it at once would give the
// writer's fingerprint a second owner.
const tornClaimGrace = 5 * time.Second

func (s *Store) claimPath(fp string, gen int) string {
	return filepath.Join(s.dir, fp[:2], fp+claimSuffix+strconv.Itoa(gen))
}

// highestClaim finds the current generation: the largest <fp>.claim<gen>
// in the bucket. gen is -1 when no claim file exists.
func (s *Store) highestClaim(fp string) (gen int, info ClaimInfo, valid bool) {
	gen = -1
	entries, err := os.ReadDir(filepath.Join(s.dir, fp[:2]))
	if err != nil {
		return -1, ClaimInfo{}, false
	}
	prefix := fp + claimSuffix
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		g, err := strconv.Atoi(name[len(prefix):])
		if err != nil || g < 0 {
			continue
		}
		if g > gen {
			gen = g
		}
	}
	if gen < 0 {
		return -1, ClaimInfo{}, false
	}
	info, valid = s.readClaim(fp, gen)
	info.gen = gen
	return gen, info, valid
}

// newNonce returns a random identity for one claim file, letting Renew
// verify it is extending its own lease and not a same-named successor's.
func newNonce() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("store: nonce: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Claim attempts to take ownership of a fingerprint for ttl. The caller
// identifies itself as owner (fleet worker names must be unique). See
// ClaimState for the three outcomes.
func (s *Store) Claim(fp, owner string, ttl time.Duration) (ClaimState, ClaimInfo, error) {
	return s.ClaimTrace(fp, owner, ttl, "")
}

// ClaimTrace is Claim carrying a fabric trace ID, persisted in the claim
// file so other workers touching this fingerprint can join the trace.
func (s *Store) ClaimTrace(fp, owner string, ttl time.Duration, trace string) (ClaimState, ClaimInfo, error) {
	if !validFP(fp) {
		return ClaimHeld, ClaimInfo{}, fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	if ttl <= 0 {
		return ClaimHeld, ClaimInfo{}, fmt.Errorf("store: claim ttl must be positive")
	}
	// A result on disk outranks any claim: the work is already done.
	// Stat, not Get: Claim runs in polling loops and must stay cheap. If
	// the entry turns out corrupt, the caller's Get discards it and the
	// next Claim no longer sees it.
	if _, err := os.Stat(s.path(fp)); err == nil {
		return ClaimDone, ClaimInfo{}, nil
	}

	gen, cur, valid := s.highestClaim(fp)
	if valid && time.Now().Before(cur.Expires) {
		return ClaimHeld, cur, nil // live lease
	}
	if !valid && gen >= 0 {
		if fi, err := os.Stat(s.claimPath(fp, gen)); err == nil {
			if until := fi.ModTime().Add(tornClaimGrace); time.Now().Before(until) {
				return ClaimHeld, ClaimInfo{Expires: until, gen: gen}, nil // possibly mid-write
			}
		}
	}
	// No claim, an expired lease, or a long-torn file: race the
	// exclusive create of the next generation. Exactly one contender wins.
	next := gen + 1
	info, err := s.createClaim(fp, next, owner, ttl, trace)
	switch {
	case err == nil:
		// Re-check for a result now that the claim is ours: the opening
		// stat and the exclusive create are not atomic, so a finishing
		// worker can Put and Release entirely between them — leaving no
		// claim to observe and no result at stat time. The re-check is
		// authoritative in that direction: Put always precedes Release,
		// so any claim acquired after a Release sees the result here.
		// This turns the common adopt-after-finish race from duplicate
		// execution into ClaimDone.
		if _, serr := os.Stat(s.path(fp)); serr == nil {
			os.Remove(s.claimPath(fp, next))
			return ClaimDone, ClaimInfo{}, nil
		}
		info.Stolen = gen >= 0
		if info.Stolen {
			// The superseded generations are dead weight; removing them is
			// safe (ownership is defined by the highest generation, which
			// is ours) and keeps the bucket from accumulating files.
			for g := 0; g < next; g++ {
				os.Remove(s.claimPath(fp, g))
			}
		}
		return ClaimAcquired, info, nil
	case errors.Is(err, fs.ErrExist):
		// A racing worker won the create. Report whatever now holds the
		// claim; a winner that has already released reads as expiring
		// immediately, which just sends the caller around the loop again.
		if _, w, ok := s.highestClaim(fp); ok {
			return ClaimHeld, w, nil
		}
		return ClaimHeld, ClaimInfo{Expires: time.Now()}, nil
	default:
		return ClaimHeld, ClaimInfo{}, err
	}
}

// createClaim exclusively creates one generation file, complete: the
// claim is written to a temp file and hard-linked to the generation name,
// which fails with fs.ErrExist when a racer got there first.
func (s *Store) createClaim(fp string, gen int, owner string, ttl time.Duration, trace string) (ClaimInfo, error) {
	nonce, err := newNonce()
	if err != nil {
		return ClaimInfo{}, err
	}
	info := ClaimInfo{Version: entryVersion, Owner: owner, Nonce: nonce, Expires: time.Now().Add(ttl), Trace: trace, gen: gen}
	raw, err := json.Marshal(info)
	if err != nil {
		return ClaimInfo{}, fmt.Errorf("store: %w", err)
	}
	path := s.claimPath(fp, gen)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return ClaimInfo{}, fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+fp+".claim*")
	if err != nil {
		return ClaimInfo{}, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return ClaimInfo{}, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return ClaimInfo{}, fmt.Errorf("store: %w", err)
	}
	if err := os.Link(tmp.Name(), path); err != nil {
		return ClaimInfo{}, err // fs.ErrExist = lost the race (not wrapped: callers errors.Is it)
	}
	return info, nil
}

// readClaim parses one generation file; ok is false for a missing, torn
// or version-skewed claim (all of which a Claim caller may steal, torn
// ones once tornClaimGrace has passed).
func (s *Store) readClaim(fp string, gen int) (ClaimInfo, bool) {
	raw, err := os.ReadFile(s.claimPath(fp, gen))
	if err != nil {
		return ClaimInfo{}, false
	}
	var c ClaimInfo
	if err := json.Unmarshal(raw, &c); err != nil || c.Version != entryVersion || c.Expires.IsZero() {
		return ClaimInfo{}, false
	}
	c.gen = gen
	return c, true
}

// Renew extends a held lease by ttl from now. It reports false when the
// caller no longer owns the claim (its lease expired and a thief created
// a higher generation, or the claim was released): the caller may keep
// executing — a duplicated run is idempotent — but should know its lease
// protection is gone.
func (s *Store) Renew(fp, owner string, ttl time.Duration) bool {
	if !validFP(fp) || ttl <= 0 {
		return false
	}
	gen, cur, ok := s.highestClaim(fp)
	if !ok || cur.Owner != owner {
		return false
	}
	cur.Expires = time.Now().Add(ttl)
	raw, err := json.Marshal(cur)
	if err != nil {
		return false
	}
	// Rewriting our own generation file races no thief: thieves only ever
	// create the next generation. If one did exactly that concurrently,
	// the follow-up highestClaim read reports it and we return false.
	if err := writeAtomic(s.claimPath(fp, gen), fp, raw); err != nil {
		return false
	}
	g, after, ok := s.highestClaim(fp)
	return ok && g == gen && after.Nonce == cur.Nonce
}

// Release drops the caller's claim. Owner-checked and best-effort: a
// claim stolen from the caller (its lease expired mid-run) is left for
// the thief, and a missed removal costs a steal's worth of latency for
// the next claimant, never correctness.
func (s *Store) Release(fp, owner string) {
	if !validFP(fp) {
		return
	}
	gen, cur, ok := s.highestClaim(fp)
	if !ok || cur.Owner != owner {
		return
	}
	for g := gen; g >= 0; g-- {
		os.Remove(s.claimPath(fp, g))
	}
}
