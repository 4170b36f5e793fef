//! Bridging the interpreter heap onto a UC address space.
//!
//! [`UcMemory`] implements `miniscript::HeapBackend` over an
//! `(Mmu, PhysMemory, AddressSpace)` triple: every interpreter write goes
//! through [`seuss_paging::Mmu::write_bytes`] (a committed allocation's
//! word per page through [`seuss_paging::Mmu::write_page_run`]), so it
//! faults, COW-breaks, and dirties pages exactly like guest memory
//! traffic.

use miniscript::{HeapBackend, HeapError};
use seuss_mem::{PhysMemory, VirtAddr};
use seuss_paging::{AddressSpace, Mmu, PageFault};

/// A borrowed view of a UC's memory, usable as an interpreter heap backend.
pub struct UcMemory<'a> {
    /// The node MMU.
    pub mmu: &'a mut Mmu,
    /// The node frame pool.
    pub mem: &'a mut PhysMemory,
    /// The UC's address space.
    pub space: &'a mut AddressSpace,
}

impl<'a> UcMemory<'a> {
    /// Wraps the triple.
    pub fn new(mmu: &'a mut Mmu, mem: &'a mut PhysMemory, space: &'a mut AddressSpace) -> Self {
        UcMemory { mmu, mem, space }
    }
}

fn map_fault(_f: PageFault) -> HeapError {
    HeapError::BackendFault
}

impl HeapBackend for UcMemory<'_> {
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), HeapError> {
        self.mmu
            .write_bytes(self.mem, self.space, VirtAddr::new(addr), bytes)
            .map_err(map_fault)
    }

    fn read(&mut self, addr: u64, out: &mut [u8]) -> Result<(), HeapError> {
        self.mmu
            .read_bytes(self.mem, self.space, VirtAddr::new(addr), out)
            .map_err(map_fault)
    }

    fn write_page_run(&mut self, addr: u64, pages: u64, bytes: &[u8]) -> Result<(), HeapError> {
        self.mmu
            .write_page_run(self.mem, self.space, VirtAddr::new(addr), pages, bytes)
            .map_err(map_fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_paging::{Region, RegionKind};

    #[test]
    fn interpreter_writes_dirty_guest_pages() {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut space = mmu.create_space(&mut mem).unwrap();
        space.add_region(Region {
            start: VirtAddr::new(0x10_0000),
            pages: 1024,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
        {
            let mut ucm = UcMemory::new(&mut mmu, &mut mem, &mut space);
            ucm.write(0x10_0000, b"interpreter state").unwrap();
            let mut buf = [0u8; 17];
            ucm.read(0x10_0000, &mut buf).unwrap();
            assert_eq!(&buf, b"interpreter state");
        }
        assert_eq!(space.dirty_count(), 1);
    }

    #[test]
    fn faults_surface_as_backend_errors() {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut space = mmu.create_space(&mut mem).unwrap();
        let mut ucm = UcMemory::new(&mut mmu, &mut mem, &mut space);
        assert_eq!(ucm.write(0xDEAD_0000, b"x"), Err(HeapError::BackendFault));
    }
}
