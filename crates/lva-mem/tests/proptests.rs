//! Property-based tests for the memory substrates: the cache against a
//! reference model, and the simulated memory's read-after-write
//! behaviour. Driven by deterministic seeded-PRNG case loops.

use lva_core::{Addr, Rng64, Value, ValueType};
use lva_mem::{CacheConfig, LineState, SetAssocCache, SimMemory};
use std::collections::HashMap;

const CASES: u64 = 256;

fn rng_for(test_seed: u64, case: u64) -> Rng64 {
    Rng64::new(test_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
}

/// Reference cache model: per-set vector of (tag, last_use) with true LRU.
#[derive(Default)]
struct ModelCache {
    sets: HashMap<u64, Vec<(u64, u64)>>,
    clock: u64,
    ways: usize,
    nsets: u64,
}

impl ModelCache {
    fn new(cfg: CacheConfig) -> Self {
        ModelCache {
            sets: HashMap::new(),
            clock: 0,
            ways: cfg.ways,
            nsets: cfg.sets() as u64,
        }
    }

    fn set_tag(&self, addr: Addr) -> (u64, u64) {
        let block = addr.0 / 64;
        (block % self.nsets, block / self.nsets)
    }

    fn access(&mut self, addr: Addr) -> bool {
        self.clock += 1;
        let (s, t) = self.set_tag(addr);
        if let Some(lines) = self.sets.get_mut(&s) {
            if let Some(line) = lines.iter_mut().find(|(tag, _)| *tag == t) {
                line.1 = self.clock;
                return true;
            }
        }
        false
    }

    fn install(&mut self, addr: Addr) {
        self.clock += 1;
        let clock = self.clock;
        let (s, t) = self.set_tag(addr);
        let ways = self.ways;
        let lines = self.sets.entry(s).or_default();
        if let Some(line) = lines.iter_mut().find(|(tag, _)| *tag == t) {
            line.1 = clock;
            return;
        }
        if lines.len() == ways {
            let victim = lines
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lu))| *lu)
                .map(|(i, _)| i)
                .expect("full set");
            lines.swap_remove(victim);
        }
        lines.push((t, clock));
    }
}

fn tiny_cfg() -> CacheConfig {
    CacheConfig {
        size_bytes: 1024,
        ways: 2,
        block_bytes: 64,
    }
}

/// The cache agrees with the reference model on every access outcome
/// under arbitrary access/install interleavings.
#[test]
fn cache_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let n = rng.gen_range(1usize..400);
        let mut cache = SetAssocCache::new(tiny_cfg());
        let mut model = ModelCache::new(tiny_cfg());
        for _ in 0..n {
            let is_access = rng.gen_bool(0.5);
            let block = rng.gen_range(0u64..64);
            let addr = Addr(block * 64);
            if is_access {
                let got = cache.access(addr).is_hit();
                let want = model.access(addr);
                assert_eq!(got, want, "access divergence at block {block}");
            } else {
                cache.install(addr, false);
                model.install(addr);
            }
        }
    }
}

/// A block is always resident immediately after install, and installs
/// never exceed the cache's capacity.
#[test]
fn install_makes_resident() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let n = rng.gen_range(1usize..300);
        let mut cache = SetAssocCache::new(CacheConfig::pin_l1());
        for _ in 0..n {
            let b = rng.gen_range(0u64..10_000);
            let addr = Addr(b * 64);
            cache.install(addr, false);
            assert!(cache.probe(addr));
            assert!(cache.resident_lines() <= 1024);
        }
    }
}

/// Eviction victims are reconstructed to real, previously installed
/// addresses in the same set.
#[test]
fn eviction_addresses_are_real() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let n = rng.gen_range(1usize..200);
        let mut cache = SetAssocCache::new(tiny_cfg());
        let mut installed: Vec<u64> = Vec::new();
        for _ in 0..n {
            let b = rng.gen_range(0u64..256);
            let addr = Addr(b * 64);
            if let Some((victim, _)) = cache.install(addr, false) {
                assert!(
                    installed.contains(&victim.block_index()),
                    "victim {} never installed",
                    victim.block_index()
                );
                assert!(!cache.probe(victim));
            }
            installed.push(b);
        }
    }
}

/// 8 KB at `ways` ways: 128 lines, over 16 sets at 8 ways or 8 at 16.
fn lines_128(ways: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: 8 * 1024,
        ways,
        block_bytes: 64,
    }
}

/// Every return value of a seeded mix of calls on `cache`, in call order.
fn mixed_calls(cache: &mut SetAssocCache, seed: u64) -> Vec<String> {
    const STATES: [LineState; 3] = [LineState::Shared, LineState::Exclusive, LineState::Modified];
    let mut rng = Rng64::new(seed);
    let mut out = Vec::new();
    for _ in 0..2_000 {
        // Four times the capacity in blocks: hits, misses and evictions.
        let addr = Addr(rng.gen_range(0u64..512) * 64 + rng.gen_range(0u64..64));
        let state = STATES[rng.gen_range(0usize..3)];
        let result = match rng.gen_range(0u32..8) {
            0 => format!("{:?}", cache.access(addr)),
            1 => format!("{:?}", cache.install(addr, rng.gen_bool(0.3))),
            2 => format!(
                "{:?}",
                cache.install_in_state(addr, state, rng.gen_bool(0.3))
            ),
            3 => {
                cache.set_state(addr, state);
                String::new()
            }
            4 => format!("{:?}", cache.invalidate(addr)),
            5 => format!("{:?}", cache.probe(addr)),
            6 => format!("{:?}", cache.state(addr)),
            _ => format!("{:?}", cache.resident_lines()),
        };
        out.push(result);
    }
    out
}

/// A cache built on storage recycled from a fully dirtied cache of the
/// same line count but another geometry answers every call exactly as a
/// freshly allocated one does.
#[test]
fn recycled_storage_behaves_as_fresh() {
    for (ways, dirty_ways) in [(8, 16), (16, 8)] {
        // A new thread starts with an empty free list, whatever ran before.
        std::thread::spawn(move || {
            let seed = 0x7ec0_c1ed ^ ways as u64;
            assert_eq!(SetAssocCache::recycled_lines(), 0);
            let mut fresh = SetAssocCache::new(lines_128(ways));
            let want = mixed_calls(&mut fresh, seed);

            // Every way of every set valid, modified and prefetch-marked.
            let mut dirty = SetAssocCache::new(lines_128(dirty_ways));
            for block in 0..1_024 {
                dirty.install_in_state(Addr(block * 64), LineState::Modified, true);
            }
            assert_eq!(dirty.resident_lines(), 128);
            drop(dirty);
            assert_eq!(SetAssocCache::recycled_lines(), 128);

            let mut recycled = SetAssocCache::new(lines_128(ways));
            assert_eq!(SetAssocCache::recycled_lines(), 0, "storage not reused");
            let got = mixed_calls(&mut recycled, seed);
            if let Some(i) = (0..want.len()).find(|&i| want[i] != got[i]) {
                panic!(
                    "{ways}-way cache on {dirty_ways}-way storage: call {i} returned {} \
                     fresh, {} recycled",
                    want[i], got[i]
                );
            }
        })
        .join()
        .expect("recycled cache diverged");
    }
}

/// A thread's free list holds one phase-1 harness's caches and never more,
/// whatever mix of geometries is built and dropped.
#[test]
fn free_list_stays_within_its_cap() {
    std::thread::spawn(|| {
        let cap = SetAssocCache::RECYCLE_CAP_LINES;
        let geometry = |size_bytes, ways| CacheConfig {
            size_bytes,
            ways,
            block_bytes: 64,
        };
        // The phase-1 harness's per-thread L1, L2 and LLC slice.
        let harness_thread = [
            CacheConfig::pin_l1(),
            geometry(256 * 1024, 8),
            geometry(2 * 1024 * 1024, 16),
        ];
        drop(
            (0..4)
                .flat_map(|_| harness_thread.map(SetAssocCache::new))
                .collect::<Vec<_>>(),
        );
        assert_eq!(SetAssocCache::recycled_lines(), cap);

        let geometries = [
            harness_thread[0],
            harness_thread[1],
            harness_thread[2],
            // Above the cap on its own, so never held.
            geometry(16 * 1024 * 1024, 16),
            CacheConfig::fullsystem_l1(),
            CacheConfig::fullsystem_l2_bank(),
        ];
        let mut rng = Rng64::new(0xca9_11e5);
        let mut live = Vec::new();
        for _ in 0..256 {
            if live.len() < 12 && rng.gen_bool(0.5) {
                let g = geometries[rng.gen_range(0..geometries.len())];
                live.push(SetAssocCache::new(g));
            } else if !live.is_empty() {
                drop(live.swap_remove(rng.gen_range(0..live.len())));
            }
            assert!(SetAssocCache::recycled_lines() <= cap);
        }
    })
    .join()
    .expect("free list exceeded its cap");
}

/// SimMemory: the last write to each byte wins, regardless of typed
/// access widths and overlaps.
#[test]
fn memory_read_after_write() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let n = rng.gen_range(1usize..100);
        let mut mem = SimMemory::new();
        let mut bytes: HashMap<u64, u8> = HashMap::new();
        for _ in 0..n {
            let off = rng.gen_range(0u64..512);
            let bits = rng.gen_u64();
            let ty = [ValueType::U8, ValueType::I32, ValueType::F64][rng.gen_range(0usize..3)];
            let addr = Addr(0x10_000 + off);
            mem.write_value(addr, Value::from_bits(bits, ty));
            for i in 0..ty.size_bytes() {
                bytes.insert(addr.0 + i, (bits >> (8 * i)) as u8);
            }
        }
        for (&a, &b) in &bytes {
            assert_eq!(mem.read_u8(Addr(a)), b);
        }
    }
}

/// Allocations never overlap and always satisfy alignment.
#[test]
fn alloc_no_overlap() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let n = rng.gen_range(1usize..50);
        let mut mem = SimMemory::new();
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let size = rng.gen_range(1u64..4096);
            let align = 1u64 << rng.gen_range(0u32..7);
            let base = mem.alloc(size, align);
            assert_eq!(base.0 % align, 0);
            for &(b, s) in &regions {
                assert!(
                    base.0 >= b + s || base.0 + size <= b,
                    "overlap: [{}, {}) vs [{}, {})",
                    base.0,
                    base.0 + size,
                    b,
                    b + s
                );
            }
            regions.push((base.0, size));
        }
    }
}
