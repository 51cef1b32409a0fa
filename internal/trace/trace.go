// Package trace provides a compact binary format for recording and
// replaying micro-op streams, giving the simulator an execution-driven
// front end that can be decoupled from the workload generators: record a
// generator once with cmd/tracegen, then replay the identical instruction
// stream across configurations.
//
// Format: a magic header, a name, then one varint-encoded record per
// micro-op. Non-memory ops are run-length encoded; memory-op addresses are
// delta-encoded per kind, which keeps streaming traces near one byte per
// skipped instruction.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fdpsim/internal/cpu"
)

// magic identifies trace files; the trailing byte versions the format.
var magic = [8]byte{'F', 'D', 'P', 'T', 'R', 'C', 0, 1}

// Record tags.
const (
	tagNops  = 0 // followed by count
	tagLoad  = 1 // followed by zigzag addr delta, pc delta, dep
	tagStore = 2 // followed by zigzag addr delta, pc delta
	tagEnd   = 3
)

// Decode limits: untrusted trace files must not be able to demand
// unbounded allocations.
const (
	maxNameLen = 4096
	maxOps     = 1 << 30
)

// Writer encodes micro-ops to an output stream.
type Writer struct {
	w        *bufio.Writer
	nops     uint64
	lastAddr int64
	lastPC   int64
	count    uint64
	closed   bool
}

// NewWriter starts a trace with the given workload name.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	writeUvarint(bw, uint64(len(name)))
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one micro-op.
func (t *Writer) Write(op cpu.MicroOp) error {
	if t.closed {
		return errors.New("trace: write after Close")
	}
	t.count++
	if op.Kind == cpu.Nop {
		t.nops++
		return nil
	}
	t.flushNops()
	tag := uint64(tagLoad)
	if op.Kind == cpu.Store {
		tag = tagStore
	}
	writeUvarint(t.w, tag)
	writeVarint(t.w, int64(op.Addr)-t.lastAddr)
	writeVarint(t.w, int64(op.PC)-t.lastPC)
	if op.Kind == cpu.Load {
		writeUvarint(t.w, uint64(op.Dep))
	}
	t.lastAddr = int64(op.Addr)
	t.lastPC = int64(op.PC)
	return nil
}

func (t *Writer) flushNops() {
	if t.nops > 0 {
		writeUvarint(t.w, tagNops)
		writeUvarint(t.w, t.nops)
		t.nops = 0
	}
}

// Count returns the number of micro-ops written so far.
func (t *Writer) Count() uint64 { return t.count }

// Close finalizes the trace. The underlying writer is not closed.
func (t *Writer) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.flushNops()
	writeUvarint(t.w, tagEnd)
	return t.w.Flush()
}

// Reader decodes a trace and implements cpu.Source. When the trace is
// exhausted the reader pads with Nops if Loop is false, or restarts from
// the recorded ops if Loop is true (addresses repeat identically).
type Reader struct {
	name string
	// runs is the decoded stream with each nop run kept as one entry, so
	// memory grows with the file's size rather than with the op count it
	// declares: a few bytes can declare a run of maxOps nops.
	runs []run
	ops  uint64 // ops in runs
	pos  int    // the run Next emits from
	rep  uint64 // ops of runs[pos] already emitted
	// Loop restarts the trace when exhausted instead of emitting Nops.
	Loop  bool
	ended bool
}

// run is n repetitions of one micro-op.
type run struct {
	op cpu.MicroOp
	n  uint64
}

// NewReader fully decodes a trace (traces are bounded by construction).
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		if m == magicV2 {
			return nil, errors.New("trace: this is a v2 trace; use trace.Open or trace.NewReaderV2")
		}
		return nil, errors.New("trace: bad magic (not a trace file or wrong version)")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds limit %d", nameLen, maxNameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	t := &Reader{name: string(nameBuf)}
	var lastAddr, lastPC int64
	for {
		tag, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: truncated stream: %w", err)
		}
		switch tag {
		case tagEnd:
			return t, nil
		case tagNops:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if n > maxOps || t.ops+n > maxOps {
				return nil, fmt.Errorf("trace: nop run of %d exceeds the %d-op decode limit", n, maxOps)
			}
			if n > 0 {
				t.runs = append(t.runs, run{op: cpu.MicroOp{Kind: cpu.Nop}, n: n})
				t.ops += n
			}
		case tagLoad, tagStore:
			da, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			dp, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			lastAddr += da
			lastPC += dp
			op := cpu.MicroOp{Addr: uint64(lastAddr), PC: uint64(lastPC)}
			if tag == tagLoad {
				dep, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				op.Kind = cpu.Load
				op.Dep = int(dep)
			} else {
				op.Kind = cpu.Store
			}
			t.runs = append(t.runs, run{op: op, n: 1})
			t.ops++
		default:
			return nil, fmt.Errorf("trace: unknown record tag %d", tag)
		}
	}
}

// Name implements cpu.Source.
func (t *Reader) Name() string { return t.name }

// Len returns the number of recorded micro-ops.
func (t *Reader) Len() int { return int(t.ops) }

// Ops implements ReplaySource.
func (t *Reader) Ops() uint64 { return t.ops }

// SetLoop implements ReplaySource.
func (t *Reader) SetLoop(loop bool) { t.Loop = loop }

// Exhausted reports whether a non-looping reader has run past its ops.
func (t *Reader) Exhausted() bool { return t.ended }

// Next implements cpu.Source.
func (t *Reader) Next() cpu.MicroOp {
	if t.pos >= len(t.runs) {
		if t.Loop && len(t.runs) > 0 {
			t.pos = 0
		} else {
			t.ended = true
			return cpu.MicroOp{Kind: cpu.Nop}
		}
	}
	r := &t.runs[t.pos]
	if t.rep++; t.rep == r.n {
		t.pos, t.rep = t.pos+1, 0
	}
	return r.op
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}
