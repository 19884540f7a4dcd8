package memory

import (
	"testing"
	"testing/quick"
)

func TestGranularities(t *testing.T) {
	a := Addr(PageSize + 3*SubPageSize + 5)
	if a.SubPage() != SubPageID(PageSize/SubPageSize+3) {
		t.Errorf("SubPage = %d", a.SubPage())
	}
	if got := a.SubPage().Base(); got != Addr(PageSize+3*SubPageSize) {
		t.Errorf("SubPage.Base = %#x", uint64(got))
	}
}

func TestAllocPageAligned(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 100)
	b := s.Alloc("b", PageSize+1)
	if a.Base%PageSize != 0 || b.Base%PageSize != 0 {
		t.Error("allocations not page aligned")
	}
	if a.Size != PageSize {
		t.Errorf("100-byte alloc rounded to %d, want %d", a.Size, PageSize)
	}
	if b.Size != 2*PageSize {
		t.Errorf("PageSize+1 alloc rounded to %d, want %d", b.Size, 2*PageSize)
	}
	if a.Base+Addr(a.Size) > b.Base {
		t.Error("regions overlap")
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	NewSpace().Alloc("bad", 0)
}

func TestRegionAccessors(t *testing.T) {
	s := NewSpace()
	r := s.AllocWords("w", 10)
	if r.Word(3) != r.Base+24 {
		t.Error("Word(3) wrong")
	}
}

func TestRegionAtOutOfRangePanics(t *testing.T) {
	s := NewSpace()
	r := s.Alloc("r", 64)
	defer func() {
		if recover() == nil {
			t.Error("At(Size) did not panic")
		}
	}()
	r.At(r.Size)
}

func TestAllocPaddedSeparateSubPages(t *testing.T) {
	s := NewSpace()
	r := s.AllocPadded("slots", 8)
	seen := map[SubPageID]bool{}
	for i := int64(0); i < 8; i++ {
		sp := r.PaddedSlot(i).SubPage()
		if seen[sp] {
			t.Fatalf("slots %d shares a sub-page with an earlier slot", i)
		}
		seen[sp] = true
	}
}

func TestWordStore(t *testing.T) {
	s := NewSpace()
	r := s.AllocWords("v", 4)
	if s.ReadWord(r.Word(0)) != 0 {
		t.Error("unwritten memory not zero")
	}
	s.WriteWord(r.Word(1), 42)
	if s.ReadWord(r.Word(1)) != 42 {
		t.Error("read after write wrong")
	}
	s.WriteWord(r.Word(1), 0)
	if s.ReadWord(r.Word(1)) != 0 {
		t.Error("write of zero not visible")
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	s := NewSpace()
	r := s.Alloc("r", 64)
	defer func() {
		if recover() == nil {
			t.Error("unaligned ReadWord did not panic")
		}
	}()
	s.ReadWord(r.Base + 3)
}

func TestPropertyAllocDisjoint(t *testing.T) {
	// Any sequence of allocations yields pairwise-disjoint regions, and
	// every address maps back into exactly the region that contains it.
	f := func(sizes []uint16) bool {
		s := NewSpace()
		var regs []Region
		for i, sz := range sizes {
			if len(regs) > 20 {
				break
			}
			regs = append(regs, s.Alloc("r", int64(sz%5000)+1))
			_ = i
		}
		end := func(r Region) Addr { return r.Base + Addr(r.Size) }
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				if end(regs[i]) > regs[j].Base && end(regs[j]) > regs[i].Base {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyWordRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		s := NewSpace()
		r := s.AllocWords("v", int64(len(vals))+1)
		for i, v := range vals {
			s.WriteWord(r.Word(int64(i)), v)
		}
		for i, v := range vals {
			if s.ReadWord(r.Word(int64(i))) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySubPageConsistency(t *testing.T) {
	// Base() of an address's sub-page is <= the address, within 128 bytes,
	// and shares the same sub-page id.
	f := func(a uint32) bool {
		addr := Addr(a)
		sp := addr.SubPage()
		base := sp.Base()
		return base <= addr && addr-base < SubPageSize && base.SubPage() == sp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
