package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// .csrg format version 2: compressed edge blocks.
//
// The v1 edge section spends 8 bytes per edge no matter what the ids look
// like. Real graph streams are far more regular than that — generators and
// crawls emit edges grouped by source, and web-graph destinations cluster
// near their source (locality) — so consecutive ids are close and their
// differences are small. v2 exploits this: each edge stores
//
//	uvarint(zigzag(src − prevSrc)), uvarint(zigzag(dst − src))
//
// where prevSrc is the previous edge's src *within the block* (0 for the
// block's first edge). Small deltas take 1–2 bytes, so typical sections
// shrink to 2–4 bytes per edge. Zigzag keeps backwards jumps cheap too.
//
// Edges are grouped into blocks of csrV2BlockEdges, each preceded by
//
//	uint32 edgeCount, uint32 byteLen
//
// and the whole section by a uint32 block count. Deltas reset at block
// boundaries, so every block decodes with no context beyond its header —
// which is what lets LoadCSR fan a whole file's blocks out over GOMAXPROCS
// workers. The streamed decoder (streamCSR) takes them one at a time: it
// feeds ingress that already keeps every core busy, where a second decode
// worker measured slower end to end.

// csrV2BlockEdges is the number of edges per compressed block. 64Ki edges
// ≈ 512 KiB decoded — big enough to amortize per-block overhead, small
// enough that the streamed decoder's one block buffer stays modest. Writers
// cut every block but the last at exactly this size; readers reject larger
// ones.
const csrV2BlockEdges = 1 << 16

// csrV2MaxBytesPerEdge bounds a block's declared byte length relative to
// its edge count: a uvarint of a zigzagged 33-bit delta is at most 5 bytes,
// two fields per edge. Anything larger is corruption, rejected before any
// allocation trusts it.
const csrV2MaxBytesPerEdge = 10

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendV2Block appends one block's compressed payload to dst and returns
// the extended slice.
func appendV2Block(dst []byte, edges []Edge) []byte {
	prevSrc := uint32(0)
	for _, e := range edges {
		dst = binary.AppendUvarint(dst, zigzag(int64(e.Src)-int64(prevSrc)))
		dst = binary.AppendUvarint(dst, zigzag(int64(e.Dst)-int64(e.Src)))
		prevSrc = e.Src
	}
	return dst
}

// decodeV2Block decodes one block payload into out (whose length is the
// block's declared edge count), bounds-checking every id and folding the
// maximum id into maxID. base is the global index of the block's first edge
// and blockIdx its position in the file; both name the offset in errors.
func decodeV2Block(src string, payload []byte, numVertices uint64, base int64, blockIdx int, out []Edge, maxID *VertexID) error {
	pos := 0
	prevSrc := int64(0)
	for i := range out {
		ds, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return fmt.Errorf("csrg %s: block %d: bad src varint at block byte %d (edge %d)", src, blockIdx, pos, base+int64(i))
		}
		pos += n
		s := prevSrc + unzigzag(ds)
		dd, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return fmt.Errorf("csrg %s: block %d: bad dst varint at block byte %d (edge %d)", src, blockIdx, pos, base+int64(i))
		}
		pos += n
		d := s + unzigzag(dd)
		if s < 0 || uint64(s) >= numVertices || d < 0 || uint64(d) >= numVertices {
			return fmt.Errorf("csrg %s: block %d: edge %d (%d→%d) outside declared vertex range [0,%d)", src, blockIdx, base+int64(i), s, d, numVertices)
		}
		out[i] = Edge{VertexID(s), VertexID(d)}
		if out[i].Src > *maxID {
			*maxID = out[i].Src
		}
		if out[i].Dst > *maxID {
			*maxID = out[i].Dst
		}
		prevSrc = s
	}
	if pos != len(payload) {
		return fmt.Errorf("csrg %s: block %d: %d trailing bytes after %d edges", src, blockIdx, len(payload)-pos, len(out))
	}
	return nil
}

// writeV2Payload writes the block count (outside the checksum, see the
// format doc) and then edges cut into blocks of csrV2BlockEdges.
func writeV2Payload(edges []Edge, cw *crcWriter) error {
	var quad [4]byte
	binary.LittleEndian.PutUint32(quad[:], uint32((len(edges)+csrV2BlockEdges-1)/csrV2BlockEdges))
	if _, err := cw.w.Write(quad[:]); err != nil {
		return err
	}
	var enc []byte
	for lo := 0; lo < len(edges); lo += csrV2BlockEdges {
		var err error
		if enc, err = cw.writeV2Block(enc, edges[lo:min(lo+csrV2BlockEdges, len(edges))]); err != nil {
			return err
		}
	}
	return nil
}

// writeV2Block compresses edges as one block — the edgeCount/byteLen header,
// then the payload — and writes it through the checksum. Both v2 writers
// emit every block here, so their bytes cannot diverge. enc is scratch
// space; the grown slice is returned for reuse.
func (c *crcWriter) writeV2Block(enc []byte, edges []Edge) ([]byte, error) {
	enc = appendV2Block(append(enc[:0], 0, 0, 0, 0, 0, 0, 0, 0), edges)
	binary.LittleEndian.PutUint32(enc[0:4], uint32(len(edges)))
	binary.LittleEndian.PutUint32(enc[4:8], uint32(len(enc)-8))
	return enc, c.write(enc)
}

// parseV2BlockHeader decodes one block header and validates it before
// anything trusts it; both v2 decoders go through this one check. The edge
// count may exceed neither csrV2BlockEdges nor the edges the file header
// has left, and the byte length must lie between the
// shortest (two 1-byte varints) and the longest (csrV2MaxBytesPerEdge)
// encoding of that many edges. Together the bounds cap what a lying header
// can make a decoder allocate.
func parseV2BlockHeader(src string, hdr []byte, bidx int, remaining, numEdges int64) (cnt, bl int, err error) {
	c := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	b := int64(binary.LittleEndian.Uint32(hdr[4:8]))
	switch {
	case c > remaining:
		return 0, 0, fmt.Errorf("csrg %s: block %d declares %d edges but only %d of the header's %d remain", src, bidx, c, remaining, numEdges)
	case c > csrV2BlockEdges:
		return 0, 0, fmt.Errorf("csrg %s: block %d declares %d edges, more than the %d a block holds", src, bidx, c, csrV2BlockEdges)
	case b > (c+1)*csrV2MaxBytesPerEdge:
		return 0, 0, fmt.Errorf("csrg %s: block %d declares %d bytes for %d edges (max %d/edge)", src, bidx, b, c, csrV2MaxBytesPerEdge)
	case b < 2*c:
		return 0, 0, fmt.Errorf("csrg %s: block %d declares %d bytes for %d edges (min 2/edge)", src, bidx, b, c)
	}
	return int(c), int(b), nil
}

// decodeCSRv2 decodes a whole in-memory v2 file: verify the checksum, index
// the blocks (every structural field is validated before any decode trusts
// it), then decode the blocks on up to workers goroutines straight into
// their slots of the shared edge slice. One worker is the sequential case.
func decodeCSRv2(src string, data []byte, off int, h csrHeader, workers int) (*Graph, error) {
	if int64(len(data)) < int64(off)+8 {
		return nil, fmt.Errorf("csrg %s: truncated v2 payload (%d bytes)", src, len(data))
	}
	payload := data[off : len(data)-4]
	if err := checkCRC(src, crc32.Checksum(payload[4:], castagnoli), binary.LittleEndian.Uint32(data[len(data)-4:])); err != nil {
		return nil, err
	}
	m := int64(h.numEdges)
	numBlocks := int(binary.LittleEndian.Uint32(payload[0:4]))
	if int64(numBlocks)*8 > int64(len(payload)-4) {
		return nil, fmt.Errorf("csrg %s: %d blocks cannot fit in %d payload bytes", src, numBlocks, len(payload)-4)
	}

	type blockRef struct {
		count int
		base  int64
		data  []byte
	}
	blocks := make([]blockRef, 0, numBlocks)
	pos := 4
	var base int64
	for bidx := 0; bidx < numBlocks; bidx++ {
		if len(payload)-pos < 8 {
			return nil, fmt.Errorf("csrg %s: truncated header of block %d at payload byte %d", src, bidx, pos)
		}
		cnt, bl, err := parseV2BlockHeader(src, payload[pos:pos+8], bidx, m-base, m)
		if err != nil {
			return nil, err
		}
		pos += 8
		if bl > len(payload)-pos {
			return nil, fmt.Errorf("csrg %s: block %d declares %d payload bytes but only %d remain", src, bidx, bl, len(payload)-pos)
		}
		blocks = append(blocks, blockRef{count: cnt, base: base, data: payload[pos : pos+bl]})
		pos += bl
		base += int64(cnt)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("csrg %s: %d trailing payload bytes after %d blocks", src, len(payload)-pos, numBlocks)
	}
	if base != m {
		return nil, fmt.Errorf("csrg %s: blocks hold %d edges, header says %d", src, base, m)
	}

	edges := make([]Edge, m)
	workers = min(workers, len(blocks))
	var next atomic.Int64
	maxIDs := make([]VertexID, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				bidx := int(next.Add(1)) - 1
				if bidx >= len(blocks) {
					return
				}
				b := blocks[bidx]
				if err := decodeV2Block(src, b.data, h.numVertices, b.base, bidx, edges[b.base:b.base+int64(b.count)], &maxIDs[w]); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	var maxID VertexID
	for w := range errs {
		if errs[w] != nil {
			return nil, errs[w]
		}
		maxID = max(maxID, maxIDs[w])
	}
	if err := checkVertexCount(src, m, maxID, h.numVertices); err != nil {
		return nil, err
	}
	g := &Graph{Name: h.name, Edges: edges, numVertices: int(h.numVertices)}
	g.buildDegrees()
	return g, nil
}

// v2Edges decodes the block section sequentially: each block is read
// through the checksum into one reused payload buffer, decoded into one
// reused block of edges and emitted, so memory stays O(block) and the
// steady state allocates nothing per block.
func (s *csrStream) v2Edges() error {
	quad := s.scratch[:4]
	if _, err := io.ReadFull(s.br, quad); err != nil { // outside the CRC
		return fmt.Errorf("csrg %s: reading block count: %w", s.name, err)
	}
	numBlocks := int(binary.LittleEndian.Uint32(quad))
	m := int64(s.h.numEdges)
	payp := getByteBuf(0)
	defer putByteBuf(payp)
	blockp := getEdgeBuf(csrV2BlockEdges)
	defer putEdgeBuf(blockp)
	for bidx := 0; bidx < numBlocks; bidx++ {
		hdr := s.scratch[:]
		if err := s.fill(hdr); err != nil {
			return fmt.Errorf("csrg %s: truncated header of block %d (edge %d of %d): %w", s.name, bidx, s.total, m, err)
		}
		cnt, bl, err := parseV2BlockHeader(s.name, hdr, bidx, m-s.total, m)
		if err != nil {
			return err
		}
		if cap(*payp) < bl {
			*payp = make([]byte, 0, bl)
		}
		payload := (*payp)[:bl]
		if err := s.fill(payload); err != nil {
			return fmt.Errorf("csrg %s: truncated payload of block %d (edge %d of %d): %w", s.name, bidx, s.total, m, err)
		}
		out := (*blockp)[:cnt] // cnt ≤ csrV2BlockEdges, checked above
		if err := decodeV2Block(s.name, payload, s.h.numVertices, s.total, bidx, out, &s.maxID); err != nil {
			return err
		}
		if err := s.emit(out); err != nil {
			return err
		}
	}
	if s.total != m {
		return fmt.Errorf("csrg %s: blocks hold %d edges, header says %d", s.name, s.total, m)
	}
	return nil
}
