package store

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"fdpsim/internal/sim"
)

// testFP returns a syntactically valid fingerprint for claim tests.
func testFP(i int) string {
	return fmt.Sprintf("%064x", 0xfeed0000+i)
}

// twoHandles opens two independent Store handles on one directory — the
// in-process stand-in for two fdpserved processes sharing a fleet store.
func twoHandles(t *testing.T) (*Store, *Store) {
	t.Helper()
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestClaimLifecycle(t *testing.T) {
	a, b := twoHandles(t)
	fp := testFP(1)

	st, info, err := a.Claim(fp, "w1", time.Minute)
	if err != nil || st != ClaimAcquired {
		t.Fatalf("first claim = %v, %v, want acquired", st, err)
	}
	if info.Owner != "w1" || info.Nonce == "" {
		t.Fatalf("claim info incomplete: %+v", info)
	}

	// A second worker sees the live lease with the holder's identity.
	st, held, err := b.Claim(fp, "w2", time.Minute)
	if err != nil || st != ClaimHeld {
		t.Fatalf("contended claim = %v, %v, want held", st, err)
	}
	if held.Owner != "w1" || !held.Expires.After(time.Now()) {
		t.Fatalf("held info: %+v", held)
	}

	// Renewal extends the lease; a non-owner cannot renew.
	if !a.Renew(fp, "w1", time.Minute) {
		t.Fatal("owner renewal failed")
	}
	if b.Renew(fp, "w2", time.Minute) {
		t.Fatal("non-owner renewal succeeded")
	}

	// Once the result lands, every claim resolves to done.
	res := sim.Result{Workload: "seqstream", IPC: 1.5}
	if err := a.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	a.Release(fp, "w1")
	st, _, err = b.Claim(fp, "w2", time.Minute)
	if err != nil || st != ClaimDone {
		t.Fatalf("claim after put = %v, %v, want done", st, err)
	}
	if got, ok := b.Get(fp); !ok || got.IPC != res.IPC {
		t.Fatalf("result not readable after done claim: %+v %v", got, ok)
	}
}

func TestClaimStealAfterExpiry(t *testing.T) {
	a, b := twoHandles(t)
	fp := testFP(2)

	if st, _, _ := a.Claim(fp, "ghost", 10*time.Millisecond); st != ClaimAcquired {
		t.Fatalf("ghost claim = %v", st)
	}
	// Before expiry the lease holds.
	if st, _, _ := b.Claim(fp, "w2", time.Minute); st != ClaimHeld {
		t.Fatalf("pre-expiry claim = %v, want held", st)
	}
	time.Sleep(20 * time.Millisecond)

	st, info, err := b.Claim(fp, "w2", time.Minute)
	if err != nil || st != ClaimAcquired {
		t.Fatalf("post-expiry claim = %v, %v, want acquired", st, err)
	}
	if !info.Stolen {
		t.Fatal("post-expiry acquisition not marked stolen")
	}
	// The ghost's renewal must now fail: its claim was replaced.
	if a.Renew(fp, "ghost", time.Minute) {
		t.Fatal("ghost renewed a stolen claim")
	}
}

func TestClaimCorruptRecovery(t *testing.T) {
	a, b := twoHandles(t)
	fp := testFP(3)

	// A crash mid-acquire leaves a torn claim file; once it is older than
	// the grace period the next worker must steal it rather than wedge.
	path := a.claimPath(fp, 0)
	if err := os.MkdirAll(dirOf(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"owner":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh unparsable claim may still be mid-write: it holds.
	if st, _, err := b.Claim(fp, "w2", time.Minute); err != nil || st != ClaimHeld {
		t.Fatalf("claim over fresh torn file = %v, %v, want held", st, err)
	}
	old := time.Now().Add(-2 * tornClaimGrace)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	st, info, err := b.Claim(fp, "w2", time.Minute)
	if err != nil || st != ClaimAcquired || !info.Stolen {
		t.Fatalf("claim over corrupt file = %v (stolen=%v), %v, want stolen acquisition", st, info.Stolen, err)
	}
}

func dirOf(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "."
}

// TestClaimRaceExclusive drives many goroutines across two handles at the
// same fingerprint: exactly one acquisition per fingerprint, everyone
// else held. Run under -race in CI, this is the multi-process claim
// correctness test.
func TestClaimRaceExclusive(t *testing.T) {
	a, b := twoHandles(t)
	handles := []*Store{a, b}

	for round := 0; round < 8; round++ {
		fp := testFP(100 + round)
		const racers = 16
		var wg sync.WaitGroup
		acquired := make(chan string, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				owner := fmt.Sprintf("w%d", i)
				st, _, err := handles[i%2].Claim(fp, owner, time.Minute)
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				if st == ClaimAcquired {
					acquired <- owner
				}
			}(i)
		}
		wg.Wait()
		close(acquired)
		var winners []string
		for w := range acquired {
			winners = append(winners, w)
		}
		if len(winners) != 1 {
			t.Fatalf("round %d: %d workers acquired the same claim: %v", round, len(winners), winners)
		}
	}
}

// TestClaimStealRace races several thieves over one expired claim:
// exactly one steal must win.
func TestClaimStealRace(t *testing.T) {
	a, b := twoHandles(t)
	handles := []*Store{a, b}
	fp := testFP(200)

	if st, _, _ := a.Claim(fp, "ghost", time.Nanosecond); st != ClaimAcquired {
		t.Fatal("seeding expired claim failed")
	}
	time.Sleep(time.Millisecond)

	const thieves = 12
	var wg sync.WaitGroup
	acquired := make(chan string, thieves)
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := fmt.Sprintf("thief%d", i)
			st, _, err := handles[i%2].Claim(fp, owner, time.Minute)
			if err != nil {
				t.Errorf("claim: %v", err)
				return
			}
			if st == ClaimAcquired {
				acquired <- owner
			}
		}(i)
	}
	wg.Wait()
	close(acquired)
	n := 0
	for range acquired {
		n++
	}
	if n != 1 {
		t.Fatalf("%d thieves stole one expired claim, want exactly 1", n)
	}
}

// TestStorePutGetRace races two handles writing and reading the same
// fingerprint (the fleet's redundant-execution case): every Get must see
// either a miss or a fully valid entry, never a torn one.
func TestStorePutGetRace(t *testing.T) {
	a, b := twoHandles(t)
	fp := testFP(300)
	res := sim.Result{Workload: "seqstream", IPC: 2.0, BPKI: 7.5}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := a
			if i%2 == 1 {
				h = b
			}
			for k := 0; k < 50; k++ {
				if err := h.Put(fp, res); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, ok := h.Get(fp); ok && (got.IPC != res.IPC || got.BPKI != res.BPKI) {
					t.Errorf("torn read: %+v", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got, ok := a.Get(fp); !ok || got.IPC != res.IPC {
		t.Fatalf("final read: %+v %v", got, ok)
	}
}
