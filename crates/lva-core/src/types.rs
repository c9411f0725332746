//! Fundamental newtypes shared by every crate in the workspace.

use std::fmt;

/// Cache block (line) size in bytes, fixed at 64 B throughout the paper
/// (Table II).
pub const BLOCK_BYTES: u64 = 64;

/// Program counter (instruction address) of a static load instruction.
///
/// Workload kernels assign a distinct `Pc` to every annotated load *site* so
/// that PC-indexed structures (the approximator table hash, the prefetcher's
/// index table, Fig. 12's static-PC census) behave as they would under real
/// binary instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

/// Byte address in the simulated flat memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Address of the first byte of the cache block containing `self`.
    #[must_use]
    pub fn block_base(self) -> Addr {
        Addr(self.0 & !(BLOCK_BYTES - 1))
    }

    /// Block number (address divided by the block size).
    #[must_use]
    pub fn block_index(self) -> u64 {
        self.0 / BLOCK_BYTES
    }

    /// The address `bytes` past `self`.
    #[must_use]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_base_masks_low_bits() {
        assert_eq!(Addr(0).block_base(), Addr(0));
        assert_eq!(Addr(63).block_base(), Addr(0));
        assert_eq!(Addr(64).block_base(), Addr(64));
        assert_eq!(Addr(0x1234).block_base(), Addr(0x1200));
    }

    #[test]
    fn offset_adds_bytes() {
        assert_eq!(Addr(10).offset(54), Addr(64));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Pc(0x10).to_string(), "pc:0x10");
        assert_eq!(Addr(0x40).to_string(), "0x40");
    }
}
