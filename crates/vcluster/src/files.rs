//! Per-VM file-extent allocation.
//!
//! Every VM's virtual disk is a contiguous extent of the host disk
//! (`vmstack` handles that mapping); inside the VM, logical files
//! ([`mrsim::FileRef`]) are laid out by a bump allocator. Intra-file
//! sequential access is therefore sequential on the virtual (and,
//! within a VM's image, the physical) disk — the property all four
//! elevators' behaviour hinges on.
//!
//! A job stream releases each finished job's files. Released extents
//! are reused only once the fresh space past the bump pointer can no
//! longer hold a new file, so a run that fits its VM disks keeps the
//! layout it would have without reuse, and a stream of any length fits
//! as long as the jobs running at once do.

use mrsim::{FileRef, TaskId};
use std::collections::BTreeMap;
use std::ops::Range;

/// An allocated extent (sectors, VM-relative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First sector.
    pub start: u64,
    /// Length in sectors.
    pub sectors: u64,
}

/// Extent allocator for one VM's virtual disk.
#[derive(Debug)]
pub struct VmFiles {
    extents: BTreeMap<FileRef, Extent>,
    /// Released extents, start sector -> length, coalesced.
    holes: BTreeMap<u64, u64>,
    next_sector: u64,
    capacity_sectors: u64,
}

impl VmFiles {
    /// Allocator over a VM extent of the given size.
    pub fn new(capacity_sectors: u64) -> Self {
        VmFiles {
            extents: BTreeMap::new(),
            holes: BTreeMap::new(),
            next_sector: 0,
            capacity_sectors,
        }
    }

    /// Get the extent of `file`, allocating `bytes` (sector-rounded,
    /// minimum one sector) on first touch. Re-touching with a different
    /// size keeps the original allocation (files never grow beyond the
    /// first-declared size — callers allocate at final size).
    pub fn ensure(&mut self, file: FileRef, bytes: u64) -> Extent {
        if let Some(&e) = self.extents.get(&file) {
            return e;
        }
        let sectors = bytes.div_ceil(512).max(1);
        let start = if self.next_sector + sectors <= self.capacity_sectors {
            self.next_sector += sectors;
            self.next_sector - sectors
        } else {
            // Fresh space is exhausted: its tail joins the released
            // extents, and the file takes the first hole it fits.
            self.release_extent(self.next_sector, self.capacity_sectors - self.next_sector);
            self.next_sector = self.capacity_sectors;
            let Some((&start, &len)) = self.holes.iter().find(|(_, &len)| len >= sectors) else {
                panic!(
                    "VM disk full: no free run of {} sectors in {} ({:?})",
                    sectors, self.capacity_sectors, file
                );
            };
            self.holes.remove(&start);
            if len > sectors {
                self.holes.insert(start + sectors, len - sectors);
            }
            start
        };
        let e = Extent { start, sectors };
        self.extents.insert(file, e);
        e
    }

    /// Extent of an already-allocated file.
    pub fn get(&self, file: FileRef) -> Option<Extent> {
        self.extents.get(&file).copied()
    }

    /// Delete every file owned by a task in `tasks` (a finished job's
    /// id range); their extents become reusable.
    pub fn release_tasks(&mut self, tasks: Range<TaskId>) {
        let mut freed = Vec::new();
        self.extents.retain(|f, e| {
            let owned = tasks.contains(&f.task());
            if owned {
                freed.push(*e);
            }
            !owned
        });
        for e in freed {
            self.release_extent(e.start, e.sectors);
        }
    }

    /// Add `[start, start + sectors)` to the holes, merging neighbours.
    fn release_extent(&mut self, mut start: u64, mut sectors: u64) {
        if sectors == 0 {
            return;
        }
        if let Some((&s, &len)) = self.holes.range(..start).next_back() {
            if s + len == start {
                self.holes.remove(&s);
                start = s;
                sectors += len;
            }
        }
        if let Some(len) = self.holes.remove(&(start + sectors)) {
            sectors += len;
        }
        self.holes.insert(start, sectors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut f = VmFiles::new(1_000_000);
        let a = f.ensure(FileRef::HdfsBlock { block: 0, replica: 0 }, 64 * 1024 * 1024);
        let b = f.ensure(FileRef::Spill { task: 0, seq: 0 }, 1024 * 1024);
        assert_eq!(a.start, 0);
        assert_eq!(a.sectors, 131072);
        assert_eq!(b.start, a.sectors);
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut f = VmFiles::new(1_000_000);
        let a = f.ensure(FileRef::MapOutput { task: 3 }, 4096);
        let again = f.ensure(FileRef::MapOutput { task: 3 }, 9999);
        assert_eq!(a, again);
        assert_eq!(f.ensure(FileRef::MapOutput { task: 4 }, 1).start, 8);
    }

    #[test]
    fn minimum_one_sector() {
        let mut f = VmFiles::new(100);
        let e = f.ensure(FileRef::MergedRun { task: 1 }, 0);
        assert_eq!(e.sectors, 1);
    }

    #[test]
    #[should_panic(expected = "VM disk full")]
    fn capacity_enforced() {
        let mut f = VmFiles::new(100);
        f.ensure(FileRef::ShuffleRun { task: 0 }, 101 * 512);
    }

    #[test]
    fn released_extents_are_reused_once_fresh_space_runs_out() {
        let mut f = VmFiles::new(100);
        let a = f.ensure(FileRef::MapOutput { task: 0 }, 30 * 512);
        let b = f.ensure(FileRef::MapOutput { task: 1 }, 30 * 512);
        let c = f.ensure(FileRef::MapOutput { task: 2 }, 30 * 512);
        f.release_tasks(0..2);
        assert_eq!(f.get(FileRef::MapOutput { task: 0 }), None);
        // Fresh space first: 10 sectors are left past the bump pointer.
        let d = f.ensure(FileRef::Spill { task: 3, seq: 0 }, 10 * 512);
        assert_eq!(d.start, c.start + c.sectors);
        // Then the coalesced hole of tasks 0 and 1, first fit.
        let e = f.ensure(FileRef::Spill { task: 3, seq: 1 }, 50 * 512);
        assert_eq!(e.start, a.start);
        let g = f.ensure(FileRef::Spill { task: 3, seq: 2 }, 10 * 512);
        assert_eq!(g.start, a.start + 50);
        assert!(g.start + g.sectors <= b.start + b.sectors);
        assert_eq!(f.get(FileRef::MapOutput { task: 2 }), Some(c), "other tasks keep their files");
    }

    #[test]
    fn an_exhausted_tail_joins_the_adjacent_hole() {
        let mut f = VmFiles::new(100);
        f.ensure(FileRef::MapOutput { task: 0 }, 40 * 512);
        f.ensure(FileRef::MapOutput { task: 1 }, 40 * 512);
        f.release_tasks(1..2);
        // 40 released + 20 fresh sectors form one 60-sector run.
        let e = f.ensure(FileRef::MergedRun { task: 2 }, 60 * 512);
        assert_eq!(e.start, 40);
    }
}
