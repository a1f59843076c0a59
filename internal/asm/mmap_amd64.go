//go:build amd64 && (linux || darwin)

package asm

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// execMem is an anonymous mapping holding assembled code, remapped
// read+execute once the bytes are in place (W^X). A finalizer unmaps it
// when the owning Code becomes unreachable; nativeCtx.code pins the Code
// for as long as machine code can still be entered.
type execMem struct {
	buf  []byte
	base uintptr
	size int
}

func allocExec(code []byte) (*execMem, error) {
	if forceAllocFail.Load() {
		return nil, fmt.Errorf("asm: simulated executable-memory failure: %w", ErrUnsupported)
	}
	size := (len(code) + 4095) &^ 4095
	buf, err := syscall.Mmap(-1, 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("asm: mmap exec memory: %v: %w", err, ErrUnsupported)
	}
	copy(buf, code)
	if err := syscall.Mprotect(buf, syscall.PROT_READ|syscall.PROT_EXEC); err != nil {
		syscall.Munmap(buf)
		return nil, fmt.Errorf("asm: mprotect rx: %v: %w", err, ErrUnsupported)
	}
	em := &execMem{buf: buf, base: uintptr(unsafe.Pointer(&buf[0])), size: size}
	execMappings.Add(1)
	execBytes.Add(int64(size))
	runtime.SetFinalizer(em, (*execMem).free)
	return em, nil
}

func (em *execMem) free() {
	if em.buf != nil {
		syscall.Munmap(em.buf)
		em.buf = nil
		execMappings.Add(-1)
		execBytes.Add(-int64(em.size))
	}
}
