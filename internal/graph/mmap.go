package graph

// mmapRef owns one read-only file mapping. A Graph whose slices alias the
// mapping pins it through its mmap field; the platform layer attaches a
// finalizer so the pages are returned once the graph is collected.
type mmapRef struct {
	data []byte
}

// unmap releases the mapping. Idempotent; must only be called once nothing
// aliases r.data.
func (r *mmapRef) unmap() {
	if r.data != nil {
		munmapBytes(r.data)
		r.data = nil
	}
}

// mmapSupported reports whether the zero-copy memory-mapped load path can
// engage on this platform: a unix mmap syscall plus a little-endian host,
// so the on-disk section layout is also the in-memory layout.
func mmapSupported() bool { return mmapAvailable && hostLittleEndian }
