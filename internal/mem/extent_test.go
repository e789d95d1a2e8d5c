package mem

import (
	"math/rand/v2"
	"testing"
)

// refMemory is the reference model the extent table must agree with: the
// straightforward one-permission-per-page map, plus a byte map for
// contents (absent bytes read as zero).
type refMemory struct {
	perms map[uint64]Perm
	data  map[uint64]byte
}

func newRef() *refMemory {
	return &refMemory{perms: map[uint64]Perm{}, data: map[uint64]byte{}}
}

func (r *refMemory) mapRange(addr, size uint64, perm Perm, onlyMapped bool) {
	first, last := addr>>pageShift, (addr+size-1)>>pageShift
	for pn := first; pn <= last; pn++ {
		if _, ok := r.perms[pn]; ok || !onlyMapped {
			r.perms[pn] = perm
		}
	}
}

func (r *refMemory) reset() {
	clear(r.perms)
	clear(r.data)
}

// access checks one byte the way the page walk does: unmapped first, then
// the permission bit.
func (r *refMemory) access(a uint64, need Perm, kind FaultKind) *Fault {
	perm, ok := r.perms[a>>pageShift]
	if !ok {
		return &Fault{Addr: a, Kind: FaultUnmapped}
	}
	if perm&need == 0 {
		return &Fault{Addr: a, Kind: kind}
	}
	return nil
}

func (r *refMemory) load(addr uint64, size int) (uint64, *Fault) {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if f := r.access(a, R, FaultNoRead); f != nil {
			return 0, f
		}
		v |= uint64(r.data[a]) << (8 * uint(i))
	}
	return v, nil
}

// store writes byte by byte, so a fault mid-word leaves the earlier bytes
// written, as the page walk does.
func (r *refMemory) store(addr uint64, size int, v uint64) *Fault {
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if f := r.access(a, W, FaultNoWrite); f != nil {
			return f
		}
		r.data[a] = byte(v >> (8 * uint(i)))
	}
	return nil
}

func (r *refMemory) checkExec(addr uint64) *Fault {
	return r.access(addr, X, FaultNoExec)
}

func sameFault(got error, want *Fault) bool {
	if want == nil {
		return got == nil
	}
	f, ok := got.(*Fault)
	return ok && *f == *want
}

// checkInvariants asserts the extent table is sorted, disjoint and fully
// coalesced.
func checkInvariants(t *testing.T, m *Memory) {
	t.Helper()
	for i, e := range m.ext {
		if e.first > e.last {
			t.Fatalf("extent %d inverted: %+v", i, e)
		}
		if i > 0 {
			p := m.ext[i-1]
			if p.last >= e.first {
				t.Fatalf("extents %d/%d overlap or unsorted: %+v %+v", i-1, i, p, e)
			}
			if p.last+1 == e.first && p.perm == e.perm {
				t.Fatalf("extents %d/%d not coalesced: %+v %+v", i-1, i, p, e)
			}
		}
	}
}

// TestExtentTableMatchesPageMap drives the extent table and the per-page
// reference model through random Map/Protect/Reset/Load/Store/CheckExec
// sequences over a small page window, so overlapping remaps with different
// permissions, Protect over partly mapped ranges and page-straddling words
// all occur, and requires them to agree on every observable at every step.
func TestExtentTableMatchesPageMap(t *testing.T) {
	const window = 24 // pages
	perms := []Perm{R, R | W, R | X, R | W | X, W, 0}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		m, ref := New(), newRef()
		randAddr := func() uint64 { return rng.Uint64N(window * PageSize) }
		// Bias word addresses towards page boundaries so straddles are common.
		wordAddr := func() uint64 {
			if rng.IntN(2) == 0 {
				return (1+rng.Uint64N(window-1))*PageSize - 1 - rng.Uint64N(8)
			}
			return randAddr()
		}
		for step := 0; step < 400; step++ {
			switch op := rng.IntN(20); {
			case op < 4:
				a, n, p := randAddr(), 1+rng.Uint64N(6*PageSize), perms[rng.IntN(len(perms))]
				m.Map(a, n, p)
				ref.mapRange(a, n, p, false)
			case op < 6:
				a, n, p := randAddr(), 1+rng.Uint64N(8*PageSize), perms[rng.IntN(len(perms))]
				m.Protect(a, n, p)
				ref.mapRange(a, n, p, true)
			case op == 6 && rng.IntN(8) == 0:
				m.Reset()
				ref.reset()
			case op < 11:
				a, size := wordAddr(), []int{1, 8}[rng.IntN(2)]
				v, err := m.Load(a, size)
				wv, wf := ref.load(a, size)
				if !sameFault(err, wf) || (wf == nil && v != wv) {
					t.Fatalf("seed %d step %d: Load(%#x,%d) = %#x,%v; want %#x,%v", seed, step, a, size, v, err, wv, wf)
				}
			case op < 16:
				a, size, v := wordAddr(), []int{1, 8}[rng.IntN(2)], rng.Uint64()
				err := m.Store(a, size, v)
				if wf := ref.store(a, size, v); !sameFault(err, wf) {
					t.Fatalf("seed %d step %d: Store(%#x,%d) = %v; want %v", seed, step, a, size, err, wf)
				}
			default:
				a := randAddr()
				if err, wf := m.CheckExec(a), ref.checkExec(a); !sameFault(err, wf) {
					t.Fatalf("seed %d step %d: CheckExec(%#x) = %v; want %v", seed, step, a, err, wf)
				}
			}
			checkInvariants(t, m)
			if got, want := m.PagesMapped(), len(ref.perms); got != want {
				t.Fatalf("seed %d step %d: PagesMapped = %d, want %d", seed, step, got, want)
			}
			for pn := uint64(0); pn <= window+6; pn++ {
				a := pn<<pageShift | rng.Uint64N(PageSize)
				want, ok := ref.perms[pn]
				if m.Mapped(a) != ok || m.PermAt(a) != want {
					t.Fatalf("seed %d step %d: page %d: Mapped=%v PermAt=%v, want %v %v", seed, step, pn, m.Mapped(a), m.PermAt(a), ok, want)
				}
			}
		}
	}
}

// TestHeapGrowthCoalesces maps a heap page by page, as malloc's brk growth
// does, and requires the table to stay one extent; remapping inside it and
// growing it must not allocate.
func TestHeapGrowthCoalesces(t *testing.T) {
	const base = 0x0240_0140
	m := New()
	m.Map(0x0101_0140, 0x20_0000, R|X) // a code segment below the heap
	m.Map(0x7fbf_0140, 0x40_0000, R|W) // a stack above it
	m.Map(base, 16*PageSize, R|W)
	for i := uint64(0); i < 10000; i++ {
		m.Map(base+(16+i)*PageSize, PageSize, R|W)
	}
	checkInvariants(t, m)
	if len(m.ext) != 3 {
		t.Fatalf("extents after heap growth = %d, want 3: %+v", len(m.ext), m.ext)
	}
	if got, want := m.PagesMapped(), 513+1025+10017; got != want {
		t.Fatalf("PagesMapped = %d, want %d", got, want)
	}

	brk := uint64(base + 10016*PageSize)
	if allocs := testing.AllocsPerRun(100, func() {
		m.Map(base+64, 16, R|W) // already mapped so: no-op
		m.Map(brk, 48, R|W)     // fresh brk: extends the heap extent
		brk += PageSize
	}); allocs != 0 {
		t.Errorf("Map allocates %.1f objects per call pair, want 0", allocs)
	}
	if len(m.ext) != 3 {
		t.Fatalf("extents after brk growth = %d, want 3", len(m.ext))
	}
}
