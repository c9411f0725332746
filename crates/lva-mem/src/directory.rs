//! MSI/MESI directory state for the distributed shared L2 (§V-B, Table II).
//!
//! Each L2 bank owns the directory slice for the blocks it caches. The
//! full-system simulator (in `lva-sim`) drives the protocol and blocks on
//! in-flight transactions itself: each bank keeps at most one open
//! transaction per block and queues the requests that find one. This
//! module holds only the stable per-block state: owners and sharer sets.

use lva_core::{Addr, IntMap};

/// Bitset of cores sharing a block (up to 64 cores; the paper uses 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        SharerSet(0)
    }

    /// A set containing only `core`.
    #[must_use]
    pub fn only(core: usize) -> Self {
        SharerSet(1 << core)
    }

    /// Adds a core.
    pub fn insert(&mut self, core: usize) {
        self.0 |= 1 << core;
    }

    /// Removes a core.
    pub fn remove(&mut self, core: usize) {
        self.0 &= !(1 << core);
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of sharers.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over member core ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.0;
        (0..64).filter(move |i| bits & (1 << i) != 0)
    }
}

/// Stable directory state for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryState {
    /// No L1 holds the block.
    #[default]
    Uncached,
    /// One or more L1s hold the block read-only.
    Shared(SharerSet),
    /// Exactly one L1 holds the block clean with permission to silently
    /// upgrade (MESI's E state; unused under plain MSI).
    Exclusive(usize),
    /// Exactly one L1 owns the block with write permission.
    Modified(usize),
}

/// Directory slice for one L2 bank.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// Every block not [`DirectoryState::Uncached`], by block index.
    blocks: IntMap<u64, DirectoryState>,
}

impl Directory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Self {
        Directory::default()
    }

    /// Current stable state for the block containing `addr`.
    #[must_use]
    #[inline]
    pub fn state(&self, addr: Addr) -> DirectoryState {
        self.blocks
            .get(&addr.block_index())
            .copied()
            .unwrap_or_default()
    }

    /// Replaces the stable state for the block.
    #[inline]
    pub fn set_state(&mut self, addr: Addr, state: DirectoryState) {
        if state == DirectoryState::Uncached {
            self.blocks.remove(&addr.block_index());
        } else {
            self.blocks.insert(addr.block_index(), state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_set_operations() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(3);
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3]);
        s.remove(0);
        assert_eq!(s, SharerSet::only(3));
    }

    #[test]
    fn default_state_is_uncached() {
        let d = Directory::new();
        assert_eq!(d.state(Addr(0x40)), DirectoryState::Uncached);
    }

    #[test]
    fn uncached_blocks_are_garbage_collected() {
        let mut d = Directory::new();
        let a = Addr(0x40);
        d.set_state(a, DirectoryState::Modified(2));
        assert_eq!(d.blocks.len(), 1);
        // Same block, different byte.
        assert_eq!(d.state(Addr(0x41)), DirectoryState::Modified(2));
        d.set_state(a, DirectoryState::Uncached);
        assert_eq!(d.blocks.len(), 0, "uncached blocks must be dropped");
    }

    #[test]
    fn exclusive_state_round_trips() {
        let mut d = Directory::new();
        let a = Addr(0x2000);
        d.set_state(a, DirectoryState::Exclusive(3));
        assert_eq!(d.state(a), DirectoryState::Exclusive(3));
    }

    #[test]
    fn state_round_trips() {
        let mut d = Directory::new();
        let a = Addr(0x1000);
        d.set_state(a, DirectoryState::Shared(SharerSet::only(1)));
        assert_eq!(d.state(a), DirectoryState::Shared(SharerSet::only(1)));
        d.set_state(a, DirectoryState::Modified(0));
        assert_eq!(d.state(a), DirectoryState::Modified(0));
    }
}
