// Package mem implements the simulated 64-bit byte-addressable memory of the
// machine: sparse 4 KiB pages with R/W/X permissions, mapped as a table of
// permission extents and materialized on first touch. It stands in for the
// hardware MMU the paper relies on (non-writable code pages for the threat
// model of §2, non-executable data pages for DEP, and page-level isolation).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// PageSize is the size of one page in bytes.
const PageSize = 4096

const pageShift = 12
const offMask = PageSize - 1

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	R Perm = 1 << iota
	W
	X
)

// String renders permissions as "rwx" flags.
func (p Perm) String() string {
	b := []byte("---")
	if p&R != 0 {
		b[0] = 'r'
	}
	if p&W != 0 {
		b[1] = 'w'
	}
	if p&X != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// FaultKind classifies access faults.
type FaultKind uint8

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota
	FaultNoRead
	FaultNoWrite
	FaultNoExec
)

var faultNames = [...]string{
	FaultUnmapped: "unmapped address",
	FaultNoRead:   "read of non-readable page",
	FaultNoWrite:  "write of non-writable page",
	FaultNoExec:   "execute of non-executable page",
}

// Fault is a memory access fault ("SIGSEGV").
type Fault struct {
	Addr uint64
	Kind FaultKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: %s at %#x", faultNames[f.Kind], f.Addr)
}

type page struct {
	perm Perm
	data [PageSize]byte
}

// cacheWays is the size of the page-translation cache (a power of two).
const cacheWays = 8

// extent is a run of mapped pages [first, last] (page numbers, inclusive)
// sharing one permission.
type extent struct {
	first, last uint64
	perm        Perm
}

// Memory is a sparse paged address space. The zero value is an empty address
// space ready to use.
//
// Mappings are an extent table: a short sorted slice of disjoint page
// ranges, each with one permission, where adjacent ranges of equal
// permission are always coalesced into one. A machine's address space is
// a handful of extents (code, rodata, globals, heap, stack) however many
// pages they span, so Map and Protect cost O(extents), not O(pages).
// Mapping a range that already lies inside one extent of the same
// permission is an allocation-free no-op, and mapping pages adjacent to an
// extent of the same permission grows that extent: malloc's brk growth
// extends the heap extent and never fragments the table.
//
// Page data is materialized lazily: Map and Protect edit the extent table
// (and the permission of pages already touched), and a page's 4 KiB data
// block is allocated on first touch. A machine maps ~10 MiB of stacks and
// segments but touches a small fraction of it, so lazy materialization
// cuts per-machine construction from megabytes of zeroed pages to a
// handful — which is what keeps the parallel harness fan-out (hundreds of
// machines) off the garbage collector's back. An untouched page reads as
// zeroes, exactly as if it had been materialized eagerly.
type Memory struct {
	// ext is the authoritative permission table: sorted by page, disjoint,
	// adjacent equal-permission extents coalesced.
	ext []extent
	// extScratch is the rebuild buffer Map and Protect swap with ext, so
	// neither allocates once both have grown to the table's size.
	extScratch []extent
	// pages holds the materialized (touched) pages. A materialized page's
	// perm always equals its extent's.
	pages map[uint64]*page

	// cache is a tiny direct-mapped translation cache in front of the page
	// map — the simulator's TLB. Pages are never unmapped during a run and
	// permission changes go through the cached *page itself, so entries
	// never go stale and no invalidation is needed; Reset (the only bulk
	// unmap) flushes it.
	cache [cacheWays]struct {
		pn uint64
		pg *page
	}

	// free recycles page frames across Reset (cleared at harvest time), so
	// a pooled machine's working set materializes without allocation.
	free []*page

	// scratch stages Move's snapshot copy, reused across calls (and across
	// Reset) so the memcpy intrinsic allocates nothing in steady state.
	scratch []byte
}

// pageFreeCap bounds the recycled-page pool: a machine's touched working
// set is a few hundred pages, and retaining more than this (4 MiB of
// backing arrays) would just pin a pathological run's footprint forever.
const pageFreeCap = 1024

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: map[uint64]*page{}}
}

// find returns the index of the extent containing page pn, or -1.
func (m *Memory) find(pn uint64) int {
	lo, hi := 0, len(m.ext)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.ext[mid].last < pn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.ext) && m.ext[lo].first <= pn {
		return lo
	}
	return -1
}

// page returns the page backing addr, materializing a mapped-but-untouched
// page on first access; nil means unmapped.
func (m *Memory) page(addr uint64) *page {
	pn := addr >> pageShift
	c := &m.cache[pn&(cacheWays-1)]
	if c.pg != nil && c.pn == pn {
		return c.pg
	}
	pg := m.pages[pn]
	if pg == nil {
		i := m.find(pn)
		if i < 0 {
			return nil
		}
		perm := m.ext[i].perm
		if n := len(m.free); n > 0 {
			pg = m.free[n-1]
			m.free = m.free[:n-1]
			pg.perm = perm
		} else {
			pg = &page{perm: perm}
		}
		m.pages[pn] = pg
	}
	c.pn, c.pg = pn, pg
	return pg
}

// pageRange returns the inclusive page range covering [addr, addr+size);
// ok is false when it is empty.
func pageRange(addr, size uint64) (first, last uint64, ok bool) {
	first = addr >> pageShift
	last = (addr + size - 1) >> pageShift
	return first, last, last >= first
}

// appendExt appends e to out, coalescing it into the previous extent when
// the two are adjacent with equal permissions.
func appendExt(out []extent, e extent) []extent {
	if n := len(out); n > 0 && out[n-1].perm == e.perm && out[n-1].last+1 == e.first {
		out[n-1].last = e.last
		return out
	}
	return append(out, e)
}

// setFramePerms sets perm on the materialized pages in [first, last],
// walking whichever is smaller: the range or the materialized set.
func (m *Memory) setFramePerms(first, last uint64, perm Perm) {
	if last-first < uint64(len(m.pages)) {
		for pn := first; ; pn++ {
			if pg := m.pages[pn]; pg != nil {
				pg.perm = perm
			}
			if pn == last {
				return
			}
		}
	}
	for pn, pg := range m.pages {
		if pn >= first && pn <= last {
			pg.perm = perm
		}
	}
}

// Map maps [addr, addr+size) with the given permissions, rounding to page
// boundaries. Remapping an existing page updates its permissions and keeps
// its contents.
func (m *Memory) Map(addr, size uint64, perm Perm) {
	first, last, ok := pageRange(addr, size)
	if !ok {
		return
	}
	if i := m.find(first); i >= 0 && m.ext[i].last >= last && m.ext[i].perm == perm {
		return // already mapped so: nothing changes
	}
	if m.pages == nil {
		m.pages = map[uint64]*page{}
	}
	out := m.extScratch[:0]
	inserted := false
	for _, e := range m.ext {
		if e.last < first {
			out = appendExt(out, e)
			continue
		}
		if e.first < first {
			out = appendExt(out, extent{e.first, first - 1, e.perm})
		}
		if !inserted {
			out = appendExt(out, extent{first, last, perm})
			inserted = true
		}
		if e.last > last {
			out = appendExt(out, extent{max(e.first, last+1), e.last, e.perm})
		}
	}
	if !inserted {
		out = appendExt(out, extent{first, last, perm})
	}
	m.ext, m.extScratch = out, m.ext
	m.setFramePerms(first, last, perm)
}

// Reset returns the address space to empty — every mapping dropped, every
// page's contents discarded — while recycling the materialized page frames
// (zeroed here, at harvest time), the map buckets and the extent table's
// backing array, so a pooled machine's reload repopulates all of them
// without allocating. Semantically identical to *m = *New(): an address
// mapped only before Reset faults exactly as it would in a fresh Memory.
func (m *Memory) Reset() {
	for _, pg := range m.pages {
		pg.data = [PageSize]byte{}
		pg.perm = 0
		if len(m.free) < pageFreeCap {
			m.free = append(m.free, pg)
		}
	}
	clear(m.pages)
	m.ext = m.ext[:0]
	for i := range m.cache {
		m.cache[i].pn = 0
		m.cache[i].pg = nil
	}
}

// Protect changes permissions on the pages covering [addr, addr+size).
// Unmapped pages in the range are ignored.
func (m *Memory) Protect(addr, size uint64, perm Perm) {
	first, last, ok := pageRange(addr, size)
	if !ok {
		return
	}
	out := m.extScratch[:0]
	for _, e := range m.ext {
		if e.last < first || e.first > last {
			out = appendExt(out, e)
			continue
		}
		if e.first < first {
			out = appendExt(out, extent{e.first, first - 1, e.perm})
		}
		out = appendExt(out, extent{max(e.first, first), min(e.last, last), perm})
		if e.last > last {
			out = appendExt(out, extent{last + 1, e.last, e.perm})
		}
	}
	m.ext, m.extScratch = out, m.ext
	m.setFramePerms(first, last, perm)
}

// Mapped reports whether addr is on a mapped page.
func (m *Memory) Mapped(addr uint64) bool {
	return m.find(addr>>pageShift) >= 0
}

// PermAt returns the permissions at addr (0 if unmapped).
func (m *Memory) PermAt(addr uint64) Perm {
	if i := m.find(addr >> pageShift); i >= 0 {
		return m.ext[i].perm
	}
	return 0
}

// PagesMapped returns the number of mapped pages (memory accounting).
func (m *Memory) PagesMapped() int {
	n := 0
	for _, e := range m.ext {
		n += int(e.last - e.first + 1)
	}
	return n
}

// CheckExec verifies addr lies on an executable page.
func (m *Memory) CheckExec(addr uint64) error {
	pg := m.page(addr)
	if pg == nil {
		return &Fault{Addr: addr, Kind: FaultUnmapped}
	}
	if pg.perm&X == 0 {
		return &Fault{Addr: addr, Kind: FaultNoExec}
	}
	return nil
}

// TryLoadWord reads one readable, in-page 8-byte word at addr through the
// translation cache. ok=false means the caller must take the general Load
// path (cache miss, page-straddling word, fault). It contains no calls, so
// it inlines into the VM's load handlers — the interpreter's hottest
// memory entry point costs a handful of instructions on the hit path.
func (m *Memory) TryLoadWord(addr uint64) (v uint64, ok bool) {
	pn := addr >> pageShift
	c := &m.cache[pn&(cacheWays-1)]
	if c.pg == nil || c.pn != pn || c.pg.perm&R == 0 || addr&offMask > PageSize-8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(c.pg.data[addr&offMask:]), true
}

// TryStoreWord is the store counterpart of TryLoadWord.
func (m *Memory) TryStoreWord(addr, v uint64) bool {
	pn := addr >> pageShift
	c := &m.cache[pn&(cacheWays-1)]
	if c.pg == nil || c.pn != pn || c.pg.perm&W == 0 || addr&offMask > PageSize-8 {
		return false
	}
	binary.LittleEndian.PutUint64(c.pg.data[addr&offMask:], v)
	return true
}

// LoadWord reads one 8-byte little-endian word at addr: the TryLoadWord
// fast path with the general fallback.
func (m *Memory) LoadWord(addr uint64) (uint64, error) {
	if addr&offMask <= PageSize-8 {
		pn := addr >> pageShift
		c := &m.cache[pn&(cacheWays-1)]
		if pg := c.pg; pg != nil && c.pn == pn && pg.perm&R != 0 {
			return binary.LittleEndian.Uint64(pg.data[addr&offMask:]), nil
		}
	}
	return m.Load(addr, 8)
}

// StoreWord writes one 8-byte little-endian word at addr; the inlinable
// counterpart of LoadWord.
func (m *Memory) StoreWord(addr, v uint64) error {
	if addr&offMask <= PageSize-8 {
		pn := addr >> pageShift
		c := &m.cache[pn&(cacheWays-1)]
		if pg := c.pg; pg != nil && c.pn == pn && pg.perm&W != 0 {
			binary.LittleEndian.PutUint64(pg.data[addr&offMask:], v)
			return nil
		}
	}
	return m.Store(addr, 8, v)
}

// Load reads size bytes (1 or 8, little-endian) at addr.
func (m *Memory) Load(addr uint64, size int) (uint64, error) {
	if size == 1 {
		pg := m.page(addr)
		if pg == nil {
			return 0, &Fault{Addr: addr, Kind: FaultUnmapped}
		}
		if pg.perm&R == 0 {
			return 0, &Fault{Addr: addr, Kind: FaultNoRead}
		}
		return uint64(pg.data[addr&offMask]), nil
	}
	if size == 8 && addr&offMask <= PageSize-8 {
		// Whole word on one page: a single translation. The first failing
		// byte is the first byte, so faults are identical to the byte walk.
		pg := m.page(addr)
		if pg == nil {
			return 0, &Fault{Addr: addr, Kind: FaultUnmapped}
		}
		if pg.perm&R == 0 {
			return 0, &Fault{Addr: addr, Kind: FaultNoRead}
		}
		return binary.LittleEndian.Uint64(pg.data[addr&offMask:]), nil
	}
	var v uint64
	for i := 0; i < size; i++ {
		pg := m.page(addr + uint64(i))
		if pg == nil {
			return 0, &Fault{Addr: addr + uint64(i), Kind: FaultUnmapped}
		}
		if pg.perm&R == 0 {
			return 0, &Fault{Addr: addr + uint64(i), Kind: FaultNoRead}
		}
		v |= uint64(pg.data[(addr+uint64(i))&offMask]) << (8 * uint(i))
	}
	return v, nil
}

// Store writes size bytes (1 or 8, little-endian) at addr.
func (m *Memory) Store(addr uint64, size int, v uint64) error {
	if size == 1 {
		pg := m.page(addr)
		if pg == nil {
			return &Fault{Addr: addr, Kind: FaultUnmapped}
		}
		if pg.perm&W == 0 {
			return &Fault{Addr: addr, Kind: FaultNoWrite}
		}
		pg.data[addr&offMask] = byte(v)
		return nil
	}
	if size == 8 && addr&offMask <= PageSize-8 {
		pg := m.page(addr)
		if pg == nil {
			return &Fault{Addr: addr, Kind: FaultUnmapped}
		}
		if pg.perm&W == 0 {
			return &Fault{Addr: addr, Kind: FaultNoWrite}
		}
		binary.LittleEndian.PutUint64(pg.data[addr&offMask:], v)
		return nil
	}
	for i := 0; i < size; i++ {
		pg := m.page(addr + uint64(i))
		if pg == nil {
			return &Fault{Addr: addr + uint64(i), Kind: FaultUnmapped}
		}
		if pg.perm&W == 0 {
			return &Fault{Addr: addr + uint64(i), Kind: FaultNoWrite}
		}
		pg.data[(addr+uint64(i))&offMask] = byte(v >> (8 * uint(i)))
	}
	return nil
}

// ReadBytes copies n bytes starting at addr into a new slice. The copy is
// page-chunked: one translation and one copy per covered page.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; {
		a := addr + uint64(i)
		pg := m.page(a)
		if pg == nil {
			return nil, &Fault{Addr: a, Kind: FaultUnmapped}
		}
		if pg.perm&R == 0 {
			return nil, &Fault{Addr: a, Kind: FaultNoRead}
		}
		off := a & offMask
		chunk := int(PageSize - off)
		if chunk > n-i {
			chunk = n - i
		}
		copy(out[i:i+chunk], pg.data[off:off+uint64(chunk)])
		i += chunk
	}
	return out, nil
}

// Move copies n bytes from src to dst with snapshot (memmove) semantics:
// the source range is read in full before any destination byte is written,
// so overlapping ranges behave as if staged through a temporary buffer —
// because they are, through an internal scratch buffer reused across calls.
// Faults are detected on the read side before the destination is touched.
func (m *Memory) Move(dst, src uint64, n int) error {
	if n <= 0 {
		return nil
	}
	if cap(m.scratch) < n {
		m.scratch = make([]byte, n)
	}
	buf := m.scratch[:n]
	for i := 0; i < n; {
		a := src + uint64(i)
		pg := m.page(a)
		if pg == nil {
			return &Fault{Addr: a, Kind: FaultUnmapped}
		}
		if pg.perm&R == 0 {
			return &Fault{Addr: a, Kind: FaultNoRead}
		}
		off := a & offMask
		chunk := int(PageSize - off)
		if chunk > n-i {
			chunk = n - i
		}
		copy(buf[i:i+chunk], pg.data[off:off+uint64(chunk)])
		i += chunk
	}
	return m.WriteBytes(dst, buf)
}

// WriteBytes writes b starting at addr, page-chunked like ReadBytes.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	for i := 0; i < len(b); {
		a := addr + uint64(i)
		pg := m.page(a)
		if pg == nil {
			return &Fault{Addr: a, Kind: FaultUnmapped}
		}
		if pg.perm&W == 0 {
			return &Fault{Addr: a, Kind: FaultNoWrite}
		}
		off := a & offMask
		chunk := int(PageSize - off)
		if chunk > len(b)-i {
			chunk = len(b) - i
		}
		copy(pg.data[off:off+uint64(chunk)], b[i:i+chunk])
		i += chunk
	}
	return nil
}

// Fill writes n copies of c starting at addr, page-chunked like WriteBytes
// but without a source buffer: the memset/zero fast path fills each page's
// backing array in place, so a large fill allocates nothing.
func (m *Memory) Fill(addr uint64, c byte, n int64) error {
	for i := int64(0); i < n; {
		a := addr + uint64(i)
		pg := m.page(a)
		if pg == nil {
			return &Fault{Addr: a, Kind: FaultUnmapped}
		}
		if pg.perm&W == 0 {
			return &Fault{Addr: a, Kind: FaultNoWrite}
		}
		off := a & offMask
		chunk := int64(PageSize - off)
		if chunk > n-i {
			chunk = n - i
		}
		dst := pg.data[off : off+uint64(chunk)]
		if c == 0 {
			clear(dst)
		} else {
			for j := range dst {
				dst[j] = c
			}
		}
		i += chunk
	}
	return nil
}

// ForceStore writes size bytes (little-endian) ignoring page write
// permissions (loader use only).
func (m *Memory) ForceStore(addr uint64, size int, v uint64) error {
	for i := 0; i < size; i++ {
		pg := m.page(addr + uint64(i))
		if pg == nil {
			return &Fault{Addr: addr + uint64(i), Kind: FaultUnmapped}
		}
		pg.data[(addr+uint64(i))&offMask] = byte(v >> (8 * uint(i)))
	}
	return nil
}

// ForceWrite writes bytes ignoring page write permissions (used by the
// loader to populate read-only segments, never by program execution).
func (m *Memory) ForceWrite(addr uint64, b []byte) error {
	for i, c := range b {
		pg := m.page(addr + uint64(i))
		if pg == nil {
			return &Fault{Addr: addr + uint64(i), Kind: FaultUnmapped}
		}
		pg.data[(addr+uint64(i))&offMask] = c
	}
	return nil
}

// ForceWriteString is ForceWrite from a string source, avoiding the
// []byte conversion allocation — the loader writes every string literal on
// each machine load/reset.
func (m *Memory) ForceWriteString(addr uint64, s string) error {
	for i := 0; i < len(s); i++ {
		pg := m.page(addr + uint64(i))
		if pg == nil {
			return &Fault{Addr: addr + uint64(i), Kind: FaultUnmapped}
		}
		pg.data[(addr+uint64(i))&offMask] = s[i]
	}
	return nil
}

// CString reads a NUL-terminated string at addr (bounded at max bytes).
func (m *Memory) CString(addr uint64, max int) (string, error) {
	b, err := m.AppendCString(nil, addr, max)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendCString appends the NUL-terminated string at addr (bounded at max
// bytes, terminator excluded) to dst and returns the extended slice. The
// scan is page-chunked, but it faults exactly where a byte-by-byte walk
// would: at the first unreadable byte before the terminator.
func (m *Memory) AppendCString(dst []byte, addr uint64, max int) ([]byte, error) {
	for i := 0; i < max; {
		a := addr + uint64(i)
		pg := m.page(a)
		if pg == nil {
			return dst, &Fault{Addr: a, Kind: FaultUnmapped}
		}
		if pg.perm&R == 0 {
			return dst, &Fault{Addr: a, Kind: FaultNoRead}
		}
		off := a & offMask
		chunk := pg.data[off:min(PageSize, off+uint64(max-i))]
		if j := bytes.IndexByte(chunk, 0); j >= 0 {
			return append(dst, chunk[:j]...), nil
		}
		dst = append(dst, chunk...)
		i += len(chunk)
	}
	return dst, nil
}
