package graph

import "unsafe"

// Zero-copy section views for the mmap load path. A .csrg v1 payload is
// little-endian fixed-width records, and writers 8-align the payload start
// (csr.go), so on a little-endian host the mapped bytes already *are* the
// in-memory representation — these helpers just reinterpret them. Each view
// returns nil when the platform byte order or the actual alignment rules it
// out, and the caller falls back to the copying decoder, so a view is an
// optimization and never a behavior change.

// Edge must be exactly two packed uint32s for edgesView to be sound; this
// fails to compile if Edge ever grows padding or fields.
var _ [8]byte = [unsafe.Sizeof(Edge{})]byte{}

// hostLittleEndian reports whether the running machine stores the low byte
// first, i.e. whether .csrg's on-disk layout matches memory.
var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// edgesView reinterprets b (interleaved src,dst uint32 pairs) as []Edge.
func edgesView(b []byte) []Edge {
	if !hostLittleEndian || len(b) < 8 ||
		uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(Edge{}) != 0 {
		return nil
	}
	return unsafe.Slice((*Edge)(unsafe.Pointer(&b[0])), len(b)/8)
}

// view32 reinterprets b as a slice of 32-bit values (the index, adjacency
// and edge-id sections).
func view32[T int32 | uint32](b []byte) []T {
	if !hostLittleEndian || len(b) < 4 ||
		uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(T(0)) != 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/4)
}
