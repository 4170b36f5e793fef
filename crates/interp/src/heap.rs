//! The interpreter heap: bump allocation over a pluggable backing store.
//!
//! Everything the interpreter allocates — interned strings, object backing
//! stores, compile arenas, lazily-initialized runtime subsystems — is
//! committed through a [`HeapBackend`]. The unikernel crate implements the
//! trait over a UC address space (so every allocation dirties guest pages
//! and participates in snapshots/COW); tests and host-side tools use the
//! in-memory [`HostHeap`].

use core::fmt;

/// Errors surfaced by a heap backend or the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapError {
    /// The bump region is exhausted.
    OutOfHeap,
    /// The backing store rejected the access (page fault, OOM, …).
    BackendFault,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfHeap => write!(f, "interpreter heap exhausted"),
            HeapError::BackendFault => write!(f, "heap backend fault"),
        }
    }
}

impl std::error::Error for HeapError {}

/// A byte-addressable backing store for the interpreter heap.
///
/// Addresses are absolute within the runtime's heap region; the backend
/// decides what they mean (guest virtual addresses for a UC, plain vector
/// offsets for [`HostHeap`]).
pub trait HeapBackend {
    /// Writes `bytes` at `addr`.
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), HeapError>;
    /// Reads `out.len()` bytes from `addr`.
    fn read(&mut self, addr: u64, out: &mut [u8]) -> Result<(), HeapError>;

    /// Writes `bytes` at `addr` and at the same offset in each of the
    /// `pages - 1` 4 KiB pages after it, stopping at the first error.
    /// `bytes` must not cross a page boundary. The default is a loop of
    /// [`HeapBackend::write`]; a backend that can walk a run of pages in
    /// one pass overrides it with the same effect.
    fn write_page_run(&mut self, addr: u64, pages: u64, bytes: &[u8]) -> Result<(), HeapError> {
        for i in 0..pages {
            self.write(addr + i * PAGE_SIZE, bytes)?;
        }
        Ok(())
    }
}

/// The page size the heap commits at: one word per page.
const PAGE_SIZE: u64 = 4096;

/// Simple growable in-memory backend for tests and host tools.
pub struct HostHeap {
    base: u64,
    bytes: Vec<u8>,
}

impl HostHeap {
    /// Creates a backend with the given capacity, based at address 0x1000.
    pub fn with_capacity(capacity: usize) -> Self {
        HostHeap {
            base: 0x1000,
            bytes: vec![0; capacity],
        }
    }

    /// The first valid address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }
}

impl HeapBackend for HostHeap {
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), HeapError> {
        let off = addr.checked_sub(self.base).ok_or(HeapError::BackendFault)? as usize;
        if off + bytes.len() > self.bytes.len() {
            return Err(HeapError::BackendFault);
        }
        self.bytes[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn read(&mut self, addr: u64, out: &mut [u8]) -> Result<(), HeapError> {
        let off = addr.checked_sub(self.base).ok_or(HeapError::BackendFault)? as usize;
        if off + out.len() > self.bytes.len() {
            return Err(HeapError::BackendFault);
        }
        out.copy_from_slice(&self.bytes[off..off + out.len()]);
        Ok(())
    }
}

/// Allocation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of allocations.
    pub allocs: u64,
    /// Bytes handed out.
    pub bytes_allocated: u64,
    /// Bytes written through the backend.
    pub bytes_written: u64,
}

/// Bump allocator bookkeeping over a backend-managed region.
#[derive(Clone, Debug)]
pub struct BumpHeap {
    base: u64,
    brk: u64,
    limit: u64,
    stats: HeapStats,
}

impl BumpHeap {
    /// Creates an allocator over `[base, base + size)`.
    pub fn new(base: u64, size: u64) -> Self {
        BumpHeap {
            base,
            brk: base,
            limit: base + size,
            stats: HeapStats::default(),
        }
    }

    /// Allocates `n` bytes, 8-byte aligned. No free — the region lives and
    /// dies with its UC, like a runtime's semispace before first GC.
    pub fn alloc(&mut self, n: u64) -> Result<u64, HeapError> {
        let addr = (self.brk + 7) & !7;
        let end = addr.checked_add(n).ok_or(HeapError::OutOfHeap)?;
        if end > self.limit {
            return Err(HeapError::OutOfHeap);
        }
        self.brk = end;
        self.stats.allocs += 1;
        self.stats.bytes_allocated += n;
        Ok(addr)
    }

    /// Allocates and writes `bytes`, returning the address.
    pub fn alloc_bytes(
        &mut self,
        backend: &mut dyn HeapBackend,
        bytes: &[u8],
    ) -> Result<u64, HeapError> {
        let addr = self.alloc(bytes.len() as u64)?;
        backend.write(addr, bytes)?;
        self.stats.bytes_written += bytes.len() as u64;
        Ok(addr)
    }

    /// Allocates `n` bytes and *commits* them: touches one word per 4 KiB
    /// page so every page of the allocation is genuinely written (the
    /// runtime behaviour that makes lazy-init allocations dirty pages).
    pub fn alloc_committed(
        &mut self,
        backend: &mut dyn HeapBackend,
        n: u64,
    ) -> Result<u64, HeapError> {
        let addr = self.alloc(n)?;
        let pages = n.div_ceil(PAGE_SIZE);
        backend.write_page_run(addr, pages, &1u64.to_le_bytes())?;
        self.stats.bytes_written += 8 * pages;
        Ok(addr)
    }

    /// Current break (next allocation address before alignment).
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Bytes still available.
    pub fn remaining(&self) -> u64 {
        self.limit - self.brk
    }

    /// Region base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Statistics so far.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_aligned() {
        let mut h = BumpHeap::new(0x1000, 4096);
        let a = h.alloc(3).unwrap();
        let b = h.alloc(8).unwrap();
        assert_eq!(a, 0x1000);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 3);
    }

    #[test]
    fn bump_exhausts() {
        let mut h = BumpHeap::new(0, 16);
        h.alloc(8).unwrap();
        h.alloc(8).unwrap();
        assert_eq!(h.alloc(1), Err(HeapError::OutOfHeap));
    }

    #[test]
    fn host_heap_round_trip() {
        let mut backend = HostHeap::with_capacity(1024);
        let mut h = BumpHeap::new(backend.base(), 1024);
        let addr = h.alloc_bytes(&mut backend, b"hello").unwrap();
        let mut buf = [0u8; 5];
        backend.read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(h.stats().allocs, 1);
        assert_eq!(h.stats().bytes_written, 5);
    }

    #[test]
    fn host_heap_bounds_checked() {
        let mut backend = HostHeap::with_capacity(16);
        assert_eq!(
            backend.write(0x1010, &[0u8; 8]),
            Err(HeapError::BackendFault)
        );
        assert_eq!(backend.write(0, &[0]), Err(HeapError::BackendFault));
    }

    #[test]
    fn alloc_committed_touches_every_page() {
        let mut backend = HostHeap::with_capacity(64 * 1024);
        let mut h = BumpHeap::new(backend.base(), 64 * 1024);
        h.alloc_committed(&mut backend, 3 * 4096 + 1).unwrap();
        // Four pages touched → four word writes.
        assert_eq!(h.stats().bytes_written, 32);
    }
}
