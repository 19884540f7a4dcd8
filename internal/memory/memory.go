// Package memory models the KSR-1 System Virtual Address (SVA) space: a
// flat 64-bit address space with no fixed home for any address (the COMA
// property), carved into the machine's four granularities:
//
//	word       8 B     unit of ReadWord/WriteWord
//	sub-block  64 B    transfer unit local-cache -> sub-cache
//	block      2 KB    allocation unit in the sub-cache
//	sub-page   128 B   transfer + coherence unit on the ring
//	page       16 KB   allocation unit in the local cache
//
// A Space is an allocator of named regions plus a sparse word-granularity
// backing store, so simulated programs can keep real values (lock tickets,
// barrier counters, wakeup flags) in simulated memory.
package memory

import "fmt"

// Addr is a System Virtual Address.
type Addr uint64

// The KSR-1 granularities, in bytes.
const (
	WordSize     = 8
	SubBlockSize = 64
	BlockSize    = 2 * 1024
	SubPageSize  = 128
	PageSize     = 16 * 1024
)

// SubPageID identifies a 128-byte coherence unit.
type SubPageID uint64

// SubPage returns the coherence unit containing a.
func (a Addr) SubPage() SubPageID { return SubPageID(a / SubPageSize) }

// Base returns the first address of the sub-page.
func (s SubPageID) Base() Addr { return Addr(s) * SubPageSize }

// Region is a named, contiguous, page-aligned allocation in the SVA space.
type Region struct {
	Name string
	Base Addr
	Size int64
}

// At returns the address of byte offset i, panicking if out of range.
func (r Region) At(i int64) Addr {
	if i < 0 || i >= r.Size {
		panic(fmt.Sprintf("memory: %s[%d] out of range (size %d)", r.Name, i, r.Size))
	}
	return r.Base + Addr(i)
}

// Word returns the address of the i-th 8-byte word.
func (r Region) Word(i int64) Addr { return r.At(i * WordSize) }

// Space is an SVA allocator and backing store. It is not safe for
// concurrent use; the simulation engine runs one process at a time, which
// is exactly the discipline Space relies on.
type Space struct {
	next  Addr
	words map[Addr]uint64
}

// NewSpace returns an empty address space. The first page is left
// unallocated so that address 0 never aliases real data.
func NewSpace() *Space {
	return &Space{next: PageSize, words: make(map[Addr]uint64)}
}

// Alloc reserves size bytes in a fresh page-aligned region. Size is rounded
// up to a whole number of pages, mirroring the local cache's page-grain
// allocation.
func (s *Space) Alloc(name string, size int64) Region {
	if size <= 0 {
		panic(fmt.Sprintf("memory: Alloc(%q, %d): size must be positive", name, size))
	}
	rounded := (size + PageSize - 1) / PageSize * PageSize
	r := Region{Name: name, Base: s.next, Size: rounded}
	s.next += Addr(rounded)
	return r
}

// AllocWords reserves n 8-byte words.
func (s *Space) AllocWords(name string, n int64) Region {
	return s.Alloc(name, n*WordSize)
}

// AllocPadded reserves n logical slots, each padded out to one whole
// sub-page so that no two slots ever share a coherence unit. This is the
// "aligned on separate cache lines" discipline the paper applies to all its
// synchronization structures to avoid false sharing. Slot i starts at
// Base + i*SubPageSize.
func (s *Space) AllocPadded(name string, n int64) Region {
	return s.Alloc(name, n*SubPageSize)
}

// ReadWord returns the 64-bit value stored at word-aligned address a.
// Unwritten memory reads as zero.
func (s *Space) ReadWord(a Addr) uint64 {
	checkAligned(a)
	return s.words[a]
}

// WriteWord stores v at word-aligned address a.
func (s *Space) WriteWord(a Addr, v uint64) {
	checkAligned(a)
	if v == 0 {
		delete(s.words, a)
		return
	}
	s.words[a] = v
}

func checkAligned(a Addr) {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("memory: unaligned word access at %#x", uint64(a)))
	}
}

// PaddedSlot returns the address of padded slot i in a region created with
// AllocPadded.
func (r Region) PaddedSlot(i int64) Addr { return r.At(i * SubPageSize) }
