//! Global-history-buffer prefetcher baseline (§VI-D).
//!
//! Reimplements the Nesbit & Smith GHB prefetcher the paper compares
//! against: a 2048-entry FIFO global history buffer of miss addresses,
//! indexed by a 2048-entry PC-localized index table, driving *local delta
//! correlation* with a next-line fallback. The prefetch degree bounds how
//! many extra blocks are requested per miss, yielding the (degree+1):1
//! fetch:miss ratio that LVA's approximation degree inverts.

use crate::{Addr, Pc, BLOCK_BYTES};

/// Configuration of the [`GhbPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Global history buffer entries (paper: 2048).
    pub ghb_entries: usize,
    /// Index table entries (paper: 2048).
    pub index_entries: usize,
    /// Prefetch degree: extra blocks fetched per miss (Fig. 8 sweeps
    /// 2–16).
    pub degree: u32,
    /// Fill remaining degree slots with sequential next-line prefetches.
    pub next_line: bool,
    /// How many history addresses to examine during delta correlation.
    pub correlation_depth: usize,
}

impl PrefetcherConfig {
    /// The paper's configuration with the given degree (§VI-D: 2048-entry
    /// GHB and index table, delta correlation + next-line).
    #[must_use]
    pub fn paper(degree: u32) -> Self {
        PrefetcherConfig {
            ghb_entries: 2048,
            index_entries: 2048,
            degree,
            next_line: true,
            correlation_depth: 64,
        }
    }

    /// Checks the sizes without allocating: both tables hold 1..=
    /// [`crate::MAX_TABLE_ENTRIES`] entries, and a miss issues at most
    /// [`crate::MAX_HISTORY_ENTRIES`] prefetches. (The correlation walk
    /// needs no cap: it never outruns the GHB.)
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::ConfigError`] found.
    pub fn validate(&self) -> Result<(), crate::ConfigError> {
        use crate::{ConfigError, MAX_HISTORY_ENTRIES, MAX_TABLE_ENTRIES};
        for (table, entries) in [("ghb", self.ghb_entries), ("index", self.index_entries)] {
            if entries == 0 {
                return Err(ConfigError::PrefetcherTable { table });
            }
        }
        ConfigError::at_most("ghb_entries", self.ghb_entries, MAX_TABLE_ENTRIES)?;
        ConfigError::at_most("index_entries", self.index_entries, MAX_TABLE_ENTRIES)?;
        ConfigError::at_most("degree", self.degree as usize, MAX_HISTORY_ENTRIES)
    }
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        Self::paper(4)
    }
}

#[derive(Debug, Clone, Copy)]
struct GhbSlot {
    /// Block index of the missing address.
    block: u64,
    /// Absolute position of the previous miss by the same PC, if any.
    prev: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct IndexSlot {
    pc: Pc,
    /// Absolute position of this PC's most recent GHB entry.
    last: u64,
}

/// The GHB prefetcher.
///
/// Call [`on_miss`](Self::on_miss) for every L1 miss; the returned block
/// addresses are the prefetch candidates. The caller owns the cache, so
/// filtering out already-resident blocks (and accounting fetch energy) is
/// its job.
#[derive(Debug, Clone)]
pub struct GhbPrefetcher {
    config: PrefetcherConfig,
    ghb: Vec<Option<GhbSlot>>,
    /// Absolute count of GHB pushes; `abs % ghb_entries` is the ring slot.
    abs: u64,
    index: Vec<Option<IndexSlot>>,
}

impl GhbPrefetcher {
    /// Builds a prefetcher from `config`, rejecting malformed
    /// configurations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns whatever [`PrefetcherConfig::validate`] rejects.
    pub fn try_new(config: PrefetcherConfig) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        Ok(Self::build(config))
    }

    fn build(config: PrefetcherConfig) -> Self {
        GhbPrefetcher {
            config,
            ghb: vec![None; config.ghb_entries],
            abs: 0,
            index: vec![None; config.index_entries],
        }
    }

    /// Records an L1 miss at `pc` for `addr` and returns up to
    /// `degree` prefetch candidates as block-aligned addresses (never
    /// including `addr`'s own block).
    pub fn on_miss(&mut self, pc: Pc, addr: Addr) -> Vec<Addr> {
        let block = addr.block_index();

        // Link into the per-PC chain through the index table.
        let islot = (pc.0 as usize) % self.config.index_entries;
        let prev = match self.index[islot] {
            Some(ix) if ix.pc == pc && self.position_valid(ix.last) => Some(ix.last),
            _ => None,
        };
        let pos = self.abs;
        self.ghb[(pos % self.config.ghb_entries as u64) as usize] = Some(GhbSlot { block, prev });
        self.abs += 1;
        self.index[islot] = Some(IndexSlot { pc, last: pos });

        // Walk this PC's miss-address history, newest first.
        let history = self.chain(pos);
        let mut candidates = delta_correlation(
            &history,
            self.config.degree as usize,
            self.config.correlation_depth,
        );

        if self.config.next_line {
            // Fill remaining slots with sequential blocks.
            let mut next = block + 1;
            while candidates.len() < self.config.degree as usize {
                if !candidates.contains(&next) && next != block {
                    candidates.push(next);
                }
                next += 1;
            }
        }
        candidates.truncate(self.config.degree as usize);
        candidates.retain(|&b| b != block);
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .map(|b| Addr(b * BLOCK_BYTES))
            .collect()
    }

    /// A GHB position is still resident if fewer than `ghb_entries` pushes
    /// have happened since (ring overwrite invalidates older links).
    fn position_valid(&self, pos: u64) -> bool {
        self.abs - pos <= self.config.ghb_entries as u64 && pos < self.abs
    }

    /// Blocks missed by this PC, newest first, bounded by the correlation
    /// depth and ring residency.
    fn chain(&self, newest: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = Some(newest);
        while let Some(pos) = cur {
            if out.len() >= self.config.correlation_depth {
                break;
            }
            // `newest` was just pushed so abs has advanced past it.
            if self.abs - pos > self.config.ghb_entries as u64 {
                break;
            }
            let Some(slot) = self.ghb[(pos % self.config.ghb_entries as u64) as usize] else {
                break;
            };
            out.push(slot.block);
            cur = slot.prev.filter(|&p| p < pos);
        }
        out
    }
}

/// Local delta correlation over a newest-first block history.
///
/// Forms the delta stream, looks for the most recent earlier occurrence of
/// the two most recent deltas, and replays the deltas that followed that
/// occurrence.
fn delta_correlation(history: &[u64], degree: usize, depth: usize) -> Vec<u64> {
    if history.len() < 4 || degree == 0 {
        return Vec::new();
    }
    let n = history.len().min(depth);
    // deltas[i] = history[i] - history[i+1] (newest delta first), as signed.
    let deltas: Vec<i64> = (0..n - 1)
        .map(|i| history[i] as i64 - history[i + 1] as i64)
        .collect();
    let (d1, d2) = (deltas[0], deltas[1]);
    // Search older pairs for (d1, d2): pair at j means deltas[j] == d1 (the
    // newer of the two) and deltas[j+1] == d2.
    for j in 1..deltas.len().saturating_sub(1) {
        if deltas[j] == d1 && deltas[j + 1] == d2 {
            // Replay the deltas that followed chronologically — deltas[j-1],
            // deltas[j-2], ..., deltas[0] — and keep cycling that pattern to
            // fill the degree (a constant stride replays indefinitely).
            let cycle: Vec<i64> = (0..j).rev().map(|k| deltas[k]).collect();
            let mut out = Vec::new();
            let mut base = history[0] as i64;
            // Bound the replay: a net-negative cycle can walk below address
            // zero forever without ever producing `degree` valid candidates,
            // so cap the total number of delta applications.
            let max_steps = 4 * degree + cycle.len();
            'fill: for _ in 0..max_steps {
                for &d in &cycle {
                    base += d;
                    if base >= 0 {
                        out.push(base as u64);
                    }
                    if out.len() >= degree {
                        break 'fill;
                    }
                }
            }
            return out;
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_addr(b: u64) -> Addr {
        Addr(b * BLOCK_BYTES)
    }

    #[test]
    fn next_line_fills_degree() {
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig::paper(4)).unwrap();
        let c = p.on_miss(Pc(1), block_addr(10));
        assert_eq!(
            c,
            vec![
                block_addr(11),
                block_addr(12),
                block_addr(13),
                block_addr(14)
            ]
        );
    }

    #[test]
    fn strided_pattern_is_correlated() {
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig {
            next_line: false,
            ..PrefetcherConfig::paper(2)
        })
        .unwrap();
        // Stride of 3 blocks: 0, 3, 6, 9, 12 ...
        for b in (0..15).step_by(3) {
            p.on_miss(Pc(7), block_addr(b));
        }
        // With next-line fill off, every candidate is a correlated one.
        let c = p.on_miss(Pc(7), block_addr(15));
        assert_eq!(c, vec![block_addr(18), block_addr(21)]);
    }

    #[test]
    fn repeating_delta_pattern_is_replayed() {
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig {
            next_line: false,
            ..PrefetcherConfig::paper(3)
        })
        .unwrap();
        // Pattern of deltas +1, +4 repeating: 0,1,5,6,10,11,15
        for b in [0u64, 1, 5, 6, 10, 11, 15] {
            p.on_miss(Pc(3), block_addr(b));
        }
        // Last two deltas are (+4, +1); the previous occurrence was followed
        // by +1 then +4, predicting 16 then 20.
        let c = p.on_miss(Pc(3), block_addr(16));
        assert!(!c.is_empty(), "pattern should correlate");
    }

    #[test]
    fn distinct_pcs_use_distinct_chains() {
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig {
            next_line: false,
            ..PrefetcherConfig::paper(2)
        })
        .unwrap();
        // PC 1 strides by 2, PC 2 strides by 5, interleaved.
        for i in 0..8u64 {
            p.on_miss(Pc(1), block_addr(i * 2));
            p.on_miss(Pc(2), block_addr(1000 + i * 5));
        }
        let c1 = p.on_miss(Pc(1), block_addr(16));
        assert_eq!(c1, vec![block_addr(18), block_addr(20)]);
        let c2 = p.on_miss(Pc(2), block_addr(1040));
        assert_eq!(c2, vec![block_addr(1045), block_addr(1050)]);
    }

    #[test]
    fn candidates_never_include_the_missing_block() {
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig::paper(8)).unwrap();
        for b in 0..50 {
            for a in p.on_miss(Pc(b % 3), block_addr(b)) {
                assert_ne!(a.block_index(), b);
            }
        }
    }

    #[test]
    fn degree_bounds_candidates() {
        for degree in [1u32, 2, 4, 8, 16] {
            let mut p = GhbPrefetcher::try_new(PrefetcherConfig::paper(degree)).unwrap();
            for b in 0..20 {
                let c = p.on_miss(Pc(1), block_addr(b * 7));
                assert!(c.len() <= degree as usize);
            }
        }
    }

    #[test]
    fn descending_strides_terminate_and_stay_nonnegative() {
        // Regression: a matched delta cycle with negative sum used to spin
        // forever when fewer than `degree` non-negative candidates exist —
        // here the descending stride reaches block 0, so every replayed
        // address is negative and the old unbounded loop never exited.
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig {
            next_line: false,
            ..PrefetcherConfig::paper(16)
        })
        .unwrap();
        for i in 0..=10u64 {
            let c = p.on_miss(Pc(9), block_addr(100 - i * 10));
            assert!(c.len() <= 16);
        }
        // The chain now ends at block 0 with deltas of -10: the replay must
        // cap and return an empty (or short) candidate list, not hang.
        let c = p.on_miss(Pc(9), block_addr(0));
        assert!(c.len() < 16);
    }

    #[test]
    fn alternating_net_negative_cycle_terminates() {
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig {
            next_line: false,
            ..PrefetcherConfig::paper(16)
        })
        .unwrap();
        // Deltas +5, -9 repeating: net −4 per cycle.
        let mut b = 2000i64;
        for i in 0..80 {
            b += if i % 2 == 0 { 5 } else { -9 };
            let c = p.on_miss(Pc(3), block_addr(b.max(0) as u64));
            assert!(c.len() <= 16, "candidates bounded");
        }
    }

    #[test]
    fn ring_overwrite_invalidates_stale_chains() {
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig {
            ghb_entries: 4,
            index_entries: 4,
            degree: 2,
            next_line: false,
            correlation_depth: 16,
        })
        .unwrap();
        p.on_miss(Pc(1), block_addr(0));
        // Flood the tiny GHB with other PCs so PC 1's entry is overwritten.
        for b in 0..8 {
            p.on_miss(Pc(2), block_addr(100 + b));
        }
        // PC 1's chain is gone; no correlation possible, no panic.
        let c = p.on_miss(Pc(1), block_addr(2));
        assert!(c.is_empty());
    }
}
