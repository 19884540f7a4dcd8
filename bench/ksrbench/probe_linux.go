package main

import "syscall"

// allocProbeTable maps n bytes of anonymous memory, outside the Go heap.
func allocProbeTable(n int) ([]byte, func(), error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, nil, err
	}
	// A failed unmap leaves the pages mapped until the process exits,
	// which changes no result.
	return b, func() { _ = syscall.Munmap(b) }, nil
}
