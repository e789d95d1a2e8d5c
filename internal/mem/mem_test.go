package mem

import (
	"testing"
	"testing/quick"
)

func TestMapLoadStore(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, R|W)
	if err := m.Store(0x1800, 8, 0xdeadbeefcafe); err != nil {
		t.Fatalf("store: %v", err)
	}
	v, err := m.Load(0x1800, 8)
	if err != nil || v != 0xdeadbeefcafe {
		t.Fatalf("load = %#x, %v", v, err)
	}
	// Byte granularity, little-endian.
	b, err := m.Load(0x1800, 1)
	if err != nil || b != 0xfe {
		t.Fatalf("byte load = %#x, %v", b, err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, R|W)
	addr := uint64(0x1ffc) // straddles 0x1000 and 0x2000 pages
	if err := m.Store(addr, 8, 0x1122334455667788); err != nil {
		t.Fatalf("cross-page store: %v", err)
	}
	v, err := m.Load(addr, 8)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("cross-page load = %#x, %v", v, err)
	}
}

func TestFaults(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, R|W)
	m.Map(0x3000, 0x1000, R) // read-only
	m.Map(0x5000, 0x1000, R|X)

	if _, err := m.Load(0x9000, 8); err == nil {
		t.Error("unmapped load should fault")
	} else if f := err.(*Fault); f.Kind != FaultUnmapped {
		t.Errorf("kind = %v", f.Kind)
	}
	if err := m.Store(0x3000, 8, 1); err == nil {
		t.Error("RO store should fault")
	} else if f := err.(*Fault); f.Kind != FaultNoWrite {
		t.Errorf("kind = %v", f.Kind)
	}
	if err := m.CheckExec(0x1000); err == nil {
		t.Error("exec of non-X page should fault")
	}
	if err := m.CheckExec(0x5000); err != nil {
		t.Errorf("exec of X page: %v", err)
	}
	if err := m.CheckExec(0x9000); err == nil {
		t.Error("exec of unmapped should fault")
	}
}

func TestProtect(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, R|W)
	if err := m.Store(0x1000, 8, 42); err != nil {
		t.Fatal(err)
	}
	m.Protect(0x1000, 0x1000, R)
	if err := m.Store(0x1000, 8, 43); err == nil {
		t.Error("store after Protect(R) should fault")
	}
	v, _ := m.Load(0x1000, 8)
	if v != 42 {
		t.Errorf("content changed: %d", v)
	}
}

func TestForceWriteIgnoresPerms(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, R)
	if err := m.ForceWrite(0x1000, []byte{1, 2, 3}); err != nil {
		t.Fatalf("ForceWrite: %v", err)
	}
	b, err := m.ReadBytes(0x1000, 3)
	if err != nil || b[0] != 1 || b[2] != 3 {
		t.Fatalf("readback = %v, %v", b, err)
	}
}

func TestCString(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, R|W)
	m.WriteBytes(0x1000, []byte("hello\x00world"))
	s, err := m.CString(0x1000, 64)
	if err != nil || s != "hello" {
		t.Fatalf("CString = %q, %v", s, err)
	}
}

// TestAppendCStringMatchesByteWalk pins the page-chunked scan to a
// byte-by-byte Load walk: same string, same fault address and kind, for
// strings that cross into readable, write-only and unmapped pages and run
// into the max bound.
func TestAppendCStringMatchesByteWalk(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, R|W)
	m.Map(0x3000, 0x1000, W) // not readable
	m.Map(0x5000, 0x1000, R|W)
	for a := uint64(0x1000); a < 0x3000; a++ {
		m.Store(a, 1, 'a'+a%26)
	}
	m.Fill(0x5000, 'z', 0x1000)
	m.Store(0x5010, 1, 0)
	walk := func(addr uint64, max int) (string, error) {
		var b []byte
		for i := 0; i < max; i++ {
			v, err := m.Load(addr+uint64(i), 1)
			if err != nil {
				return "", err
			}
			if v == 0 {
				break
			}
			b = append(b, byte(v))
		}
		return string(b), nil
	}
	for _, c := range []struct {
		addr uint64
		max  int
	}{
		{0x1ff0, 64},      // crosses a page, stops at max
		{0x2ff0, 64},      // runs into the non-readable page
		{0x4ff8, 64},      // starts unmapped
		{0x2ffc, 4},       // max ends exactly at the page boundary
		{0x5000, 64},      // NUL on the page
		{0x5ff0, 64},      // runs into an unmapped page
		{0x1000, 1 << 20}, // runs into the non-readable page after 8 KiB
	} {
		want, wantErr := walk(c.addr, c.max)
		got, err := m.AppendCString([]byte("pre:"), c.addr, c.max)
		if (err == nil) != (wantErr == nil) || (err != nil && *err.(*Fault) != *wantErr.(*Fault)) {
			t.Errorf("AppendCString(%#x, %d) error = %v, want %v", c.addr, c.max, err, wantErr)
			continue
		}
		if err == nil && string(got) != "pre:"+want {
			t.Errorf("AppendCString(%#x, %d) = %q, want %q", c.addr, c.max, got, "pre:"+want)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x4000, R|W)
	f := func(data []byte, off uint16) bool {
		if len(data) > 2048 {
			data = data[:2048]
		}
		addr := 0x1000 + uint64(off)%0x2000
		if err := m.WriteBytes(addr, data); err != nil {
			return false
		}
		got, err := m.ReadBytes(addr, len(data))
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a word stored at any mapped address reads back identically
// (little-endian, byte-assembled).
func TestWordRoundTrip(t *testing.T) {
	m := New()
	m.Map(0, 0x10000, R|W)
	f := func(addr uint32, v uint64) bool {
		a := uint64(addr) % 0xff00
		if err := m.Store(a, 8, v); err != nil {
			return false
		}
		got, err := m.Load(a, 8)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPagesMapped(t *testing.T) {
	m := New()
	m.Map(0x0, 1, R)
	m.Map(0x1000, PageSize*3, R)
	if got := m.PagesMapped(); got != 4 {
		t.Errorf("PagesMapped = %d, want 4", got)
	}
}

func TestPermString(t *testing.T) {
	if s := (R | W).String(); s != "rw-" {
		t.Errorf("perm string = %q", s)
	}
	if s := (R | X).String(); s != "r-x" {
		t.Errorf("perm string = %q", s)
	}
}
