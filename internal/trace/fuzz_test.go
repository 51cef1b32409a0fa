package trace

import (
	"bytes"
	"io"
	"testing"

	"fdpsim/internal/cpu"
)

// FuzzReader ensures arbitrary byte streams never panic the decoder: they
// either parse as a valid trace or return an error.
func FuzzReader(f *testing.F) {
	// Seed with a valid trace and a few corruptions of it.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "seed")
	w.Write(cpu.MicroOp{Kind: cpu.Nop})
	w.Write(cpu.MicroOp{Kind: cpu.Load, Addr: 4096, PC: 64, Dep: 2})
	w.Write(cpu.MicroOp{Kind: cpu.Store, Addr: 128, PC: 68})
	w.Close()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("FDPTRC\x00\x01"))
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 10 {
		mutated[10] ^= 0xFF
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		// Accepted traces must be safely replayable to their end and past
		// it. A few bytes can declare a run of 2^30 nops, so the replay
		// enters each run at its last two ops: every run boundary and the
		// end are still reached through Next.
		var total uint64
		for _, run := range r.runs {
			if k := run.op.Kind; k != cpu.Nop && k != cpu.Load && k != cpu.Store {
				t.Fatalf("decoded invalid op kind %d", k)
			}
			if run.n == 0 {
				t.Fatalf("decoded an empty run")
			}
			total += run.n
		}
		if total != uint64(r.Len()) {
			t.Fatalf("runs hold %d ops, Len() = %d", total, r.Len())
		}
		for i, want := range r.runs {
			if r.pos != i || r.rep != 0 {
				t.Fatalf("run %d starts at run %d, op %d", i, r.pos, r.rep)
			}
			r.rep = want.n - min(want.n, 2)
			for r.rep < want.n {
				if op := r.Next(); op != want.op || r.Exhausted() {
					t.Fatalf("run %d replayed %+v (exhausted %v), want %+v", i, op, r.Exhausted(), want.op)
				}
				if r.pos != i {
					break
				}
			}
		}
		for i := 0; i < 4; i++ {
			if op := r.Next(); op.Kind != cpu.Nop || !r.Exhausted() {
				t.Fatalf("read past the end = %+v (exhausted %v), want an exhausted Nop", op, r.Exhausted())
			}
		}
	})
}

// FuzzReaderV2 ensures the streaming v2 decoder never panics or
// over-allocates on arbitrary bytes: malformed frames must error. Both
// the seekable path (footer pre-read) and the plain-stream path run.
func FuzzReaderV2(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriterV2(&buf, "seed")
	for i := 0; i < 3*frameTargetOps/2; i++ {
		switch i % 5 {
		case 0, 1:
			w.Write(cpu.MicroOp{Kind: cpu.Nop})
		case 2:
			w.Write(cpu.MicroOp{Kind: cpu.Load, Addr: uint64(i) * 64, PC: 0x400000, Dep: i % 3})
		case 3:
			w.Write(cpu.MicroOp{Kind: cpu.Store, Addr: uint64(i) * 128, PC: 0x400004})
		case 4:
			w.Write(cpu.MicroOp{Kind: cpu.Load, Addr: 1 << 40, PC: 0x400008})
		}
	}
	w.Close()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-footerLen]) // footer sheared off
	f.Add([]byte{})
	f.Add([]byte("FDPTRC\x00\x02"))
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 40 {
		mutated[40] ^= 0xFF // corrupt a payload byte: CRC must catch it
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, seekable := range []bool{true, false} {
			var in io.Reader = bytes.NewReader(data)
			if !seekable {
				in = io.MultiReader(in)
			}
			r, err := NewReaderV2(in)
			if err != nil {
				continue // rejected: fine
			}
			// Accepted traces must be safely drainable with bounded
			// memory, whatever the frame headers claim.
			for i := 0; i < 2*frameTargetOps && !r.Exhausted(); i++ {
				op := r.Next()
				if op.Kind != cpu.Nop && op.Kind != cpu.Load && op.Kind != cpu.Store {
					t.Fatalf("decoded invalid op kind %d", op.Kind)
				}
				if cap(r.ops) > maxFrameOps || cap(r.payload) > maxFramePayload {
					t.Fatalf("decoder over-allocated: ops cap %d, payload cap %d", cap(r.ops), cap(r.payload))
				}
			}
		}
	})
}
