package graph

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"strings"
	"testing"
)

// The fuzz targets encode the loader contract the corruption matrices
// (TestCSRCorruptionDetection, TestCSRv2CorruptionDetection) pin case by
// case: arbitrary bytes must never panic a loader, every rejection must be
// a named error, and every acceptance must satisfy the Graph invariants.
// The seed corpus is the corruption matrix replayed as mutations of valid
// v1 and v2 files, so the fuzzer starts at the known-interesting
// boundaries instead of rediscovering the header layout.

// fuzzSeedGraph mirrors testGraph's shapes (hubs, duplicates, self loop,
// isolated ids) without needing a *testing.T.
func fuzzSeedGraph() *Graph {
	return FromEdges("fuzz-seed", []Edge{
		{0, 1}, {1, 2}, {2, 0}, {5, 1}, {1, 5}, {0, 1},
		{7, 0}, {3, 3},
	})
}

func fuzzCSRBytes(f *testing.F, version int) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := WriteCSRVersion(fuzzSeedGraph(), &buf, version); err != nil {
		f.Fatalf("writing v%d seed: %v", version, err)
	}
	return buf.Bytes()
}

// addCSRSeeds seeds both format versions plus the corruption-matrix
// mutations: truncations at the interesting boundaries, a wrong magic, an
// unsupported version, unknown flags, payload bit flips, lying vertex
// counts, and a non-terminating v2 varint.
func addCSRSeeds(f *testing.F) {
	f.Helper()
	v1 := fuzzCSRBytes(f, CSRVersion1)
	v2 := fuzzCSRBytes(f, CSRVersion2)
	mutate := func(base []byte, fn func([]byte) []byte) {
		f.Add(fn(append([]byte(nil), base...)))
	}
	for _, base := range [][]byte{v1, v2} {
		f.Add(base)
		mutate(base, func(b []byte) []byte { return nil })
		mutate(base, func(b []byte) []byte { return b[:10] })
		mutate(base, func(b []byte) []byte { return b[:csrHeaderFixed+2] })
		mutate(base, func(b []byte) []byte { return b[:len(b)/2] })
		mutate(base, func(b []byte) []byte { return b[:len(b)-4] })
		mutate(base, func(b []byte) []byte { return append(b, 0xff) })
		mutate(base, func(b []byte) []byte { b[0] = 'X'; return b })
		mutate(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return b
		})
		mutate(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], 0x80)
			return b
		})
		mutate(base, func(b []byte) []byte {
			b[len(b)-5] ^= 0x40
			return b
		})
		mutate(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 2)
			return b
		})
		mutate(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1000)
			return b
		})
	}
	// v2 only: a varint made of continuation bytes that never terminates.
	mutate(v2, func(b []byte) []byte {
		hl := csrHeaderFixed + int(binary.LittleEndian.Uint32(b[24:28]))
		block0 := hl + 4
		for i := 0; i < 12 && block0+8+i < len(b); i++ {
			b[block0+8+i] = 0x80
		}
		return b
	})
	// v2 only: the block re-encoded with overlong varints under a fresh
	// checksum. Every value decodes unchanged, but the block is longer than
	// csrV2MaxBytesPerEdge per edge allows; both decoders must reject it.
	mutate(v2, overlongV2)
}

// overlongV2 rewrites a one-block v2 file with every varint padded to
// binary.MaxVarintLen64 bytes (non-minimal but decodable) and re-checksums
// it.
func overlongV2(b []byte) []byte {
	hl := csrHeaderFixed + int(binary.LittleEndian.Uint32(b[24:28]))
	block0 := hl + 4
	var long []byte
	for pos := block0 + 8; pos < len(b)-4; {
		u, n := binary.Uvarint(b[pos:])
		pos += n
		for i := 0; i < binary.MaxVarintLen64-1; i++ {
			long = append(long, byte(u)|0x80)
			u >>= 7
		}
		long = append(long, byte(u))
	}
	out := append([]byte(nil), b[:block0+4]...) // header, block count, edge count
	out = binary.LittleEndian.AppendUint32(out, uint32(len(long)))
	out = append(out, long...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[hl+4:], castagnoli))
}

// checkNamedErr asserts a loader rejection is a named error, never a bare
// or empty one: corrupt input must be attributable to the format layer.
func checkNamedErr(t *testing.T, err error, want string) {
	t.Helper()
	if err.Error() == "" {
		t.Fatalf("loader rejected input with an empty error message")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("loader error %q is not a named %q error", err, want)
	}
}

// checkGraphInvariants asserts the structural invariants every accepted
// graph must satisfy: edge ids inside the vertex space and degree arrays
// consistent with the edge list.
func checkGraphInvariants(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumVertices()
	for i, e := range g.Edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			t.Fatalf("edge %d = %v escapes the %d-vertex space", i, e, n)
		}
	}
	if len(g.Edges) > 0 && n == 0 {
		t.Fatalf("%d edges but zero vertices", len(g.Edges))
	}
}

// FuzzReadCSR: the whole-file decoder must reject arbitrary bytes with a
// named csrg error or return a structurally valid graph — and never panic.
func FuzzReadCSR(f *testing.F) {
	addCSRSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeCSRBytes(data)
		if err != nil {
			checkNamedErr(t, err, "csrg")
			return
		}
		checkGraphInvariants(t, g)
	})
}

// FuzzStreamCSR: the streamed decoder against the whole-file decoder on the
// same bytes. Whenever the whole-file decoder accepts, the stream must
// accept too and deliver the same edge sequence, edge count and max id,
// in offset order; every rejection by either must be a named csrg error.
// The converse need not hold: the stream does not re-validate v1 adjacency
// sections and stops reading at the checksum footer.
func FuzzStreamCSR(f *testing.F) {
	addCSRSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		var delivered int64
		total, maxID, err := streamCSR("fuzz", bytes.NewReader(data), 7, func(offset int64, edges []Edge) error {
			if offset != delivered {
				t.Fatalf("batch offset %d, want %d", offset, delivered)
			}
			delivered += int64(len(edges))
			hashEdges(h, edges)
			return nil
		})
		if err != nil {
			checkNamedErr(t, err, "csrg")
		}
		g, gerr := decodeCSRBytes(data)
		if gerr != nil {
			checkNamedErr(t, gerr, "csrg")
			return
		}
		if err != nil {
			t.Fatalf("whole-file decoder accepted but the stream rejected: %v", err)
		}
		want := fnv.New64a()
		hashEdges(want, g.Edges)
		wantMax := VertexID(0)
		if len(g.Edges) > 0 {
			wantMax = VertexID(g.NumVertices() - 1)
		}
		if total != int64(len(g.Edges)) || maxID != wantMax || h.Sum64() != want.Sum64() {
			t.Fatalf("decoders disagree: stream (%d edges, max %d, hash %#x) vs whole file (%d, %d, %#x)",
				total, maxID, h.Sum64(), len(g.Edges), wantMax, want.Sum64())
		}
	})
}

// hashEdges folds an edge sequence into h.
func hashEdges(h hash.Hash64, edges []Edge) {
	var buf [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:4], e.Src)
		binary.LittleEndian.PutUint32(buf[4:8], e.Dst)
		h.Write(buf[:])
	}
}

// FuzzParseEdgeList: the text parser (ReadEdgeList and its streaming core)
// must never panic, must name every rejection, and the materialized and
// streaming paths must agree on what they parsed.
func FuzzParseEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n2 0\n"))
	f.Add([]byte("# SNAP comment\n% DIMACS comment\n\n5 1\t\n 1 5 \n"))
	f.Add([]byte("0 1 extra fields ignored\n"))
	f.Add([]byte("1\n"))                    // too few fields
	f.Add([]byte("a b\n"))                  // non-numeric
	f.Add([]byte("1 99999999999999999999")) // overflows uint32
	f.Add([]byte("4294967295 0\n"))         // max uint32 id
	f.Add([]byte("-1 2\n"))
	f.Add([]byte(strings.Repeat("#", 2000) + "\n0 1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var streamed int64
		var streamMax VertexID
		sn, smax, serr := StreamEdgeList("fuzz", bytes.NewReader(data), 3, func(offset int64, edges []Edge) error {
			if offset != streamed {
				t.Fatalf("batch offset %d, want %d", offset, streamed)
			}
			streamed += int64(len(edges))
			for _, e := range edges {
				if e.Src > streamMax {
					streamMax = e.Src
				}
				if e.Dst > streamMax {
					streamMax = e.Dst
				}
			}
			return nil
		})
		if serr == nil && smax >= 1<<22 {
			// Legal input, absurd vertex space: materializing would allocate
			// O(maxID) degree arrays. The streaming path has validated it;
			// skip the materialized comparison.
			return
		}
		g, err := ReadEdgeList("fuzz", bytes.NewReader(data))
		if err != nil {
			checkNamedErr(t, err, "edge list")
			if serr == nil {
				t.Fatalf("ReadEdgeList rejected (%v) but StreamEdgeList accepted", err)
			}
			return
		}
		if serr != nil {
			t.Fatalf("ReadEdgeList accepted but StreamEdgeList rejected: %v", serr)
		}
		checkGraphInvariants(t, g)
		if int64(len(g.Edges)) != sn || streamed != sn {
			t.Fatalf("edge counts disagree: materialized %d, streamed %d (delivered %d)", len(g.Edges), sn, streamed)
		}
		if len(g.Edges) > 0 && int(smax)+1 != g.NumVertices() {
			t.Fatalf("max id %d inconsistent with %d vertices", smax, g.NumVertices())
		}
	})
}
