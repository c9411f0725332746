//! Simulated results pinned for the default seed. A change that only
//! touches host time must reproduce them exactly; on any other seed the
//! gate instead checks that every pass reproduces the first one.

/// The seed whose results are pinned.
pub const PINNED_SEED: u64 = 0;

/// Per kernel (registry order): FNV-1a 64 of `Phase1Stats::fingerprint()`
/// for the mechanism-alone run under the phase-1 configuration.
const PHASE1: [u64; 7] = [
    14361898744234189369,
    8704982355559626221,
    8146783358728890105,
    17891137336859535636,
    9402566974241293863,
    16893680252043114263,
    10650201029274966342,
];

/// Per trace (registry order): `(cycles, instructions, flit_hops)` of the
/// full-system replay.
const FULLSYSTEM: [(u64, u64, u64); 7] = [
    (71723, 981000, 8623),
    (10981, 166656, 5579),
    (561291, 8187892, 679010),
    (72010, 466944, 9216),
    (165896, 2313110, 38675),
    (11417, 179472, 120),
    (5748, 71584, 528),
];

pub fn phase1(seed: u64) -> Option<Vec<u64>> {
    (seed == PINNED_SEED).then(|| PHASE1.to_vec())
}

pub fn fullsystem(seed: u64) -> Option<Vec<(u64, u64, u64)>> {
    (seed == PINNED_SEED).then(|| FULLSYSTEM.to_vec())
}
