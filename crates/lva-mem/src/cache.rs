//! Set-associative cache tag model with true-LRU replacement.

use lva_core::{Addr, BLOCK_BYTES};
use std::cell::RefCell;
use std::fmt;

/// Per-line coherence/validity state. The phase-1 harness only uses
/// `Shared`; the full-system simulator uses the full MSI set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Valid, clean, possibly shared with other caches.
    Shared,
    /// Valid, clean, exclusively held (MESI's E state): may be silently
    /// upgraded to [`LineState::Modified`] without coherence traffic.
    Exclusive,
    /// Valid, dirty, exclusively owned.
    Modified,
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (64 B everywhere in the paper).
    pub block_bytes: u64,
}

impl CacheConfig {
    /// Phase-1 Pin-style private L1: 64 KB, 8-way, 64 B blocks (§V-A).
    #[must_use]
    pub fn pin_l1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 8,
            block_bytes: BLOCK_BYTES,
        }
    }

    /// Full-system private L1: 16 KB, 8-way, 64 B blocks (Table II).
    #[must_use]
    pub const fn fullsystem_l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 8,
            block_bytes: BLOCK_BYTES,
        }
    }

    /// One bank of the distributed shared L2: 512 KB total over 4 banks,
    /// 16-way (Table II).
    #[must_use]
    pub const fn fullsystem_l2_bank() -> Self {
        CacheConfig {
            size_bytes: 128 * 1024,
            ways: 16,
            block_bytes: BLOCK_BYTES,
        }
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.block_bytes)) as usize
    }
}

/// Outcome of a cache access or install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The block was present.
    Hit {
        /// Whether the hit line had been brought in by a prefetch and was
        /// being demanded for the first time (a *useful* prefetch).
        first_use_of_prefetch: bool,
    },
    /// The block was absent.
    Miss,
}

impl AccessResult {
    /// Whether this was a hit.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit { .. })
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// This is a *tag* model: data lives in [`crate::SimMemory`]. The cache
/// answers presence questions and tracks per-line MSI-ish state, which is
/// all the simulators need.
///
/// Lines are stored struct-of-arrays: parallel flat `tags` / `last_use` /
/// `states` / `prefetched` arrays indexed `set * ways + way`, with a
/// per-set occupancy count keeping valid ways contiguous. The hot-path tag
/// scan is then a tight loop over adjacent `u64`s the autovectorizer can
/// chew on.
///
/// A dropped cache hands its arrays to a free list kept per thread, and
/// [`new`](Self::new) takes back arrays of the same line count from it,
/// whatever their geometry, zeroing only the occupancy counts. A phase-1
/// harness builds twelve caches of about 2.1 MB in all, so a thread that
/// runs harness after harness stops zeroing and page-faulting that much
/// per run. Stale lines are never seen: every read stays inside a set's
/// first `occupancy[set]` ways, and an install writes all four arrays
/// before the count grows past its way. The list holds at most
/// [`RECYCLE_CAP_LINES`](Self::RECYCLE_CAP_LINES) lines, one phase-1
/// harness's worth, and lets go of its oldest storage first.
///
/// # Example
///
/// ```
/// use lva_mem::{CacheConfig, SetAssocCache};
/// use lva_core::Addr;
///
/// let mut l1 = SetAssocCache::new(CacheConfig::pin_l1());
/// assert!(!l1.access(Addr(0x40)).is_hit());
/// l1.install(Addr(0x40), false);
/// assert!(l1.access(Addr(0x7f)).is_hit()); // same 64 B block
/// ```
#[derive(Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Per-line tags, `set * ways + way`; only `occupancy[set]` ways valid.
    tags: Vec<u64>,
    /// Per-line LRU stamps, parallel to `tags`. Stored as the truncated
    /// low 32 bits of the access clock: stamps stay unique (and the LRU
    /// minimum exact) until a single cache instance sees 2^32 events, far
    /// beyond any simulated run, and the narrower array halves the memory
    /// traffic of the per-miss eviction scan.
    last_use: Vec<u32>,
    /// Per-line coherence states, parallel to `tags`.
    states: Vec<LineState>,
    /// Per-line prefetch marks, parallel to `tags`.
    prefetched: Vec<bool>,
    /// Valid ways per set; valid ways are contiguous from way 0.
    occupancy: Vec<u8>,
    num_sets: usize,
    clock: u64,
    /// log2(block_bytes): set/tag extraction runs on every access, so the
    /// geometry divisions are precomputed into shifts and masks.
    block_shift: u32,
    set_mask: u64,
    set_shift: u32,
}

impl SetAssocCache {
    /// Most lines a thread's free list of cache storage holds: one phase-1
    /// harness's twelve caches, four threads of a 64 KB L1, a 256 KB L2
    /// and a 2 MB LLC slice at 64 B lines.
    pub const RECYCLE_CAP_LINES: usize = 151_552;

    /// Lines of storage this thread's free list holds for the next
    /// [`new`](Self::new), never above
    /// [`RECYCLE_CAP_LINES`](Self::RECYCLE_CAP_LINES).
    #[must_use]
    pub fn recycled_lines() -> usize {
        FREE_STORAGE
            .try_with(|free| free.borrow().iter().map(Storage::lines).sum())
            .unwrap_or(0)
    }

    /// Builds a cache of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two, non-zero set
    /// count, if `block_bytes` is not a power of two, or if `ways` is zero
    /// or above 255.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "cache needs at least one way");
        assert!(config.ways <= 255, "occupancy counts are u8");
        assert!(
            config.block_bytes.is_power_of_two(),
            "block size must be a power of two, got {}",
            config.block_bytes
        );
        let sets = config.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a non-zero power of two, got {sets}"
        );
        let Storage {
            tags,
            last_use,
            states,
            prefetched,
            occupancy,
        } = Storage::take(sets * config.ways, sets);
        SetAssocCache {
            config,
            tags,
            last_use,
            states,
            prefetched,
            occupancy,
            num_sets: sets,
            clock: 0,
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
        }
    }

    #[inline]
    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let block = addr.0 >> self.block_shift;
        ((block & self.set_mask) as usize, block >> self.set_shift)
    }

    /// The valid-line range of `set` within the flat arrays.
    #[inline]
    fn range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.config.ways;
        base..base + self.occupancy[set] as usize
    }

    /// Index of the valid line holding `tag` in `set`, if present.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let r = self.range(set);
        self.tags[r.clone()]
            .iter()
            .position(|&t| t == tag)
            .map(|w| r.start + w)
    }

    /// Looks up `addr`, updating LRU on a hit. Does **not** allocate — call
    /// [`install`](Self::install) on a miss once the fill arrives.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> AccessResult {
        self.clock += 1;
        let clock = self.clock as u32;
        let (set, tag) = self.set_and_tag(addr);
        if let Some(i) = self.find(set, tag) {
            self.last_use[i] = clock;
            let first_use = self.prefetched[i];
            // Only dirty the prefetch-mark array when the mark was set:
            // demand hits dominate, and keeping their accesses read-only on
            // this array saves a store per hit.
            if first_use {
                self.prefetched[i] = false;
            }
            return AccessResult::Hit {
                first_use_of_prefetch: first_use,
            };
        }
        AccessResult::Miss
    }

    /// Whether the block is present, without disturbing LRU or the access
    /// clock — the side-effect-free fast query the harness and prefetcher
    /// use for candidate checks on the hot path.
    #[must_use]
    #[inline]
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.tags[self.range(set)].contains(&tag)
    }

    /// Current state of the line holding `addr`, if present.
    #[must_use]
    pub fn state(&self, addr: Addr) -> Option<LineState> {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag).map(|i| self.states[i])
    }

    /// Installs the block containing `addr` in [`LineState::Shared`],
    /// evicting the LRU line if the set is full. Returns the evicted
    /// block's base address and state, if any. Installing an already
    /// present block refreshes its LRU position instead.
    ///
    /// `prefetched` marks lines brought in by a prefetcher so that
    /// first-demand-use can be spotted ([`AccessResult::Hit`]).
    pub fn install(&mut self, addr: Addr, prefetched: bool) -> Option<(Addr, LineState)> {
        self.install_in_state(addr, LineState::Shared, prefetched)
    }

    /// [`install`](Self::install) with instrumentation: when the install
    /// evicts a resident line, an eviction event is recorded into `sink`.
    /// The sink is write-only — replacement decisions are identical to the
    /// untraced call, so traced runs stay deterministic.
    pub fn install_traced(
        &mut self,
        addr: Addr,
        prefetched: bool,
        sink: &mut dyn lva_obs::TraceSink,
        ctx: lva_obs::TraceCtx,
    ) -> Option<(Addr, LineState)> {
        let evicted = self.install(addr, prefetched);
        if sink.enabled() {
            if let Some((victim, state)) = evicted {
                sink.record(lva_obs::TraceEvent::at(
                    ctx,
                    lva_obs::TraceEventKind::Eviction {
                        addr: victim.0,
                        dirty: state == LineState::Modified,
                    },
                ));
            }
        }
        evicted
    }

    /// Installs the block in a specific state (the full-system simulator
    /// installs store-miss fills directly in [`LineState::Modified`]).
    pub fn install_in_state(
        &mut self,
        addr: Addr,
        state: LineState,
        prefetched: bool,
    ) -> Option<(Addr, LineState)> {
        self.clock += 1;
        let clock = self.clock as u32;
        let (set, tag) = self.set_and_tag(addr);
        if let Some(i) = self.find(set, tag) {
            self.last_use[i] = clock;
            self.states[i] = state;
            return None;
        }
        let ways = self.config.ways;
        let occ = self.occupancy[set] as usize;
        let i = if occ < ways {
            self.occupancy[set] += 1;
            set * ways + occ
        } else {
            // Full set: replace the LRU way in place. Stamps are unique
            // (the clock strictly increments), so the minimum is unique.
            let r = self.range(set);
            let victim_way = self.last_use[r.clone()]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(w, _)| w)
                .expect("set is full, so non-empty");
            r.start + victim_way
        };
        let victim = if occ < ways {
            None
        } else {
            let victim_block = self.tags[i] * self.num_sets as u64 + set as u64;
            Some((Addr(victim_block * self.config.block_bytes), self.states[i]))
        };
        self.tags[i] = tag;
        self.last_use[i] = clock;
        self.states[i] = state;
        self.prefetched[i] = prefetched;
        victim
    }

    /// Transitions the line holding `addr` to `state`, if present.
    pub fn set_state(&mut self, addr: Addr, state: LineState) {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(i) = self.find(set, tag) {
            self.states[i] = state;
        }
    }

    /// Removes the block containing `addr`, returning its state if it was
    /// present (used for coherence invalidations). The last valid way moves
    /// into the hole to keep valid ways contiguous (`Vec::swap_remove`
    /// semantics).
    pub fn invalidate(&mut self, addr: Addr) -> Option<LineState> {
        let (set, tag) = self.set_and_tag(addr);
        let i = self.find(set, tag)?;
        let state = self.states[i];
        let last = self.range(set).end - 1;
        self.tags[i] = self.tags[last];
        self.last_use[i] = self.last_use[last];
        self.states[i] = self.states[last];
        self.prefetched[i] = self.prefetched[last];
        self.occupancy[set] -= 1;
        Some(state)
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.occupancy.iter().map(|&o| o as usize).sum()
    }
}

impl Drop for SetAssocCache {
    fn drop(&mut self) {
        Storage {
            tags: std::mem::take(&mut self.tags),
            last_use: std::mem::take(&mut self.last_use),
            states: std::mem::take(&mut self.states),
            prefetched: std::mem::take(&mut self.prefetched),
            occupancy: std::mem::take(&mut self.occupancy),
        }
        .give();
    }
}

/// Only the geometry and the valid lines: the arrays past each set's
/// occupancy may hold a dropped cache's lines.
impl fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("config", &self.config)
            .field("resident_lines", &self.resident_lines())
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

/// A cache's arrays on their way to or from the free list.
struct Storage {
    tags: Vec<u64>,
    last_use: Vec<u32>,
    states: Vec<LineState>,
    prefetched: Vec<bool>,
    occupancy: Vec<u8>,
}

thread_local! {
    /// Storage of dropped caches, oldest first.
    static FREE_STORAGE: RefCell<Vec<Storage>> = const { RefCell::new(Vec::new()) };
}

impl Storage {
    fn lines(&self) -> usize {
        self.tags.len()
    }

    /// Arrays for `lines` lines over `sets` empty sets: the newest free
    /// storage of that line count, or fresh zeroed arrays.
    fn take(lines: usize, sets: usize) -> Storage {
        let recycled = FREE_STORAGE.try_with(|free| {
            let mut free = free.borrow_mut();
            let i = free.iter().rposition(|s| s.lines() == lines)?;
            Some(free.remove(i))
        });
        match recycled.ok().flatten() {
            Some(mut storage) => {
                storage.occupancy.clear();
                storage.occupancy.resize(sets, 0);
                storage
            }
            None => Storage {
                tags: vec![0; lines],
                last_use: vec![0; lines],
                states: vec![LineState::Shared; lines],
                prefetched: vec![false; lines],
                occupancy: vec![0; sets],
            },
        }
    }

    /// Puts the storage on this thread's free list, letting go of the
    /// oldest entries to stay within the cap. During thread teardown the
    /// storage is simply freed.
    fn give(self) {
        let lines = self.lines();
        if lines > SetAssocCache::RECYCLE_CAP_LINES {
            return;
        }
        let _ = FREE_STORAGE.try_with(|free| {
            let mut free = free.borrow_mut();
            let mut held = lines + free.iter().map(Storage::lines).sum::<usize>();
            while held > SetAssocCache::RECYCLE_CAP_LINES {
                held -= free.remove(0).lines();
            }
            free.push(self);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            block_bytes: 64,
        })
    }

    fn set0_block(i: u64) -> Addr {
        // Blocks that all map to set 0 of the tiny cache: stride 4 blocks.
        Addr(i * 4 * 64)
    }

    #[test]
    fn hit_after_install() {
        let mut c = tiny();
        assert_eq!(c.access(Addr(0)), AccessResult::Miss);
        c.install(Addr(0), false);
        assert!(c.access(Addr(63)).is_hit());
        assert_eq!(c.access(Addr(64)), AccessResult::Miss);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        c.install(set0_block(0), false);
        c.install(set0_block(1), false);
        // Touch block 0 so block 1 is LRU.
        assert!(c.access(set0_block(0)).is_hit());
        let evicted = c.install(set0_block(2), false);
        assert_eq!(evicted, Some((set0_block(1), LineState::Shared)));
        assert!(c.probe(set0_block(0)));
        assert!(!c.probe(set0_block(1)));
    }

    #[test]
    fn reinstall_refreshes_instead_of_duplicating() {
        let mut c = tiny();
        c.install(set0_block(0), false);
        c.install(set0_block(0), false);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line_and_reports_state() {
        let mut c = tiny();
        c.install_in_state(Addr(0), LineState::Modified, false);
        assert_eq!(c.invalidate(Addr(0)), Some(LineState::Modified));
        assert_eq!(c.invalidate(Addr(0)), None);
        assert!(!c.probe(Addr(0)));
    }

    #[test]
    fn prefetched_lines_report_first_demand_use_once() {
        let mut c = tiny();
        c.install(Addr(0), true);
        assert_eq!(
            c.access(Addr(0)),
            AccessResult::Hit {
                first_use_of_prefetch: true
            }
        );
        assert_eq!(
            c.access(Addr(0)),
            AccessResult::Hit {
                first_use_of_prefetch: false
            }
        );
    }

    #[test]
    fn state_transitions_are_visible() {
        let mut c = tiny();
        c.install(Addr(0), false);
        assert_eq!(c.state(Addr(0)), Some(LineState::Shared));
        c.set_state(Addr(0), LineState::Modified);
        assert_eq!(c.state(Addr(0)), Some(LineState::Modified));
    }

    #[test]
    fn paper_geometries_are_valid() {
        assert_eq!(CacheConfig::pin_l1().sets(), 128);
        assert_eq!(CacheConfig::fullsystem_l1().sets(), 32);
        assert_eq!(CacheConfig::fullsystem_l2_bank().sets(), 128);
        let _ = SetAssocCache::new(CacheConfig::pin_l1());
        let _ = SetAssocCache::new(CacheConfig::fullsystem_l1());
        let _ = SetAssocCache::new(CacheConfig::fullsystem_l2_bank());
    }

    #[test]
    fn eviction_address_reconstruction_is_exact() {
        let mut c = tiny();
        let a = Addr(7 * 4 * 64); // set 0, tag 7
        c.install(a, false);
        c.install(set0_block(8), false);
        let (victim, _) = c.install(set0_block(9), false).expect("eviction");
        assert_eq!(victim.block_base(), a.block_base());
    }

    #[test]
    fn traced_install_emits_evictions_and_matches_untraced() {
        use lva_obs::{TraceCtx, TraceEventKind, TraceSink as _};

        let mut plain = tiny();
        let mut traced = tiny();
        let mut ring = lva_obs::RingBufferSink::new(64);
        let ctx = TraceCtx::new(0, 0);
        for i in 0..3 {
            let a = plain.install(set0_block(i), false);
            let b = traced.install_traced(set0_block(i), false, &mut ring, ctx);
            assert_eq!(a, b, "tracing must not change replacement");
        }
        // 2-way set: the third install evicted the first block.
        assert_eq!(ring.len(), 1);
        match &ring.events()[0].kind {
            TraceEventKind::Eviction { addr, dirty } => {
                assert_eq!(*addr, set0_block(0).block_base().0);
                assert!(!dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        // A disabled sink records nothing and changes nothing.
        let mut null = lva_obs::NullSink;
        let a = plain.install(set0_block(3), false);
        let b = traced.install_traced(set0_block(3), false, &mut null, ctx);
        assert_eq!(a, b);
        assert!(!null.enabled());
    }
}
