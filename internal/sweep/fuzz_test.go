package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// TestGridSizeBound checks the grid bound on lengths a request body can
// carry, passed as ints so nothing of that size is allocated: the product
// of 2^22 × 2^21 × 2^21 wraps an unchecked int to 0, and each factor alone
// can exceed MaxJobs.
func TestGridSizeBound(t *testing.T) {
	for _, tc := range []struct {
		rows, configs, seeds int
		ok                   bool
	}{
		{1, 1, 1, true},
		{MaxJobs, 1, 1, true},
		{16, 16, 16, true},
		{MaxJobs, 2, 1, false},
		{1, 1, MaxJobs + 1, false},
		{1 << 22, 1 << 21, 1 << 21, false},
		{1 << 32, 1 << 32, 1, false},
		{1 << 62, 4, 1, false},
	} {
		total, err := gridSize(tc.rows, tc.configs, tc.seeds)
		switch {
		case tc.ok && (err != nil || total != tc.rows*tc.configs*tc.seeds):
			t.Errorf("gridSize(%d, %d, %d) = %d, %v; want the product", tc.rows, tc.configs, tc.seeds, total, err)
		case !tc.ok && !errors.Is(err, ErrInvalid):
			t.Errorf("gridSize(%d, %d, %d) = %d, %v; want ErrInvalid", tc.rows, tc.configs, tc.seeds, total, err)
		}
	}
}

// FuzzExpand hammers the POST /v1/sweeps body: decoded the way the HTTP
// handler decodes it, a request must expand without panicking, every
// rejection must wrap ErrInvalid, and an accepted grid must hold exactly
// rows × configs × seeds units, at most MaxJobs.
func FuzzExpand(f *testing.F) {
	for _, req := range []Request{threeAxis(), {}} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"workloads":["chaserand"],"configs":[{"fdp":true,"controller":"tree"}],"seeds":[1,2],"series":true}`))
	f.Add([]byte(`{"specs":[{"name":"fz","phases":[{"clients":[{"weight":1}]}]}],"configs":[{"prefetcher":"ghb","level":3}]}`))
	f.Add([]byte(`{"workloads":["seqstream","seqstream"],"configs":[{"label":"a"},{"label":"a"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		units, err := req.Expand()
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection does not wrap ErrInvalid: %v", err)
			}
			return
		}
		seeds := len(req.Seeds)
		if seeds == 0 {
			seeds = 1
		}
		want := (len(req.Workloads) + len(req.Specs)) * len(req.Configs) * seeds
		if len(units) != want || len(units) > MaxJobs {
			t.Fatalf("accepted grid has %d units, want %d (bound %d)", len(units), want, MaxJobs)
		}
	})
}
