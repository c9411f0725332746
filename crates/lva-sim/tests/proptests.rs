//! Property-based tests for the phase-1 harness and the phase-2 full
//! system: counter algebra, value integrity, and no-deadlock guarantees
//! under randomized access patterns. Driven by deterministic
//! seeded-PRNG case loops.

use lva_core::{Addr, ApproximatorConfig, Pc, Rng64, Value, ValueType};
use lva_cpu::ThreadTrace;
use lva_sim::{FullSystem, FullSystemConfig, MechanismKind, SimConfig, SimHarness};

const CASES: u64 = 128;

fn rng_for(test_seed: u64, case: u64) -> Rng64 {
    Rng64::new(test_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
}

#[derive(Debug, Clone)]
enum Op {
    LoadPrecise { pc: u64, block: u64 },
    LoadApprox { pc: u64, block: u64 },
    Store { pc: u64, block: u64, v: i32 },
    Tick(u32),
    Thread(usize),
}

fn arb_ops(rng: &mut Rng64) -> Vec<Op> {
    let n = rng.gen_range(1usize..300);
    (0..n)
        .map(|_| match rng.gen_range(0usize..5) {
            0 => Op::LoadPrecise {
                pc: rng.gen_range(0u64..8),
                block: rng.gen_range(0u64..64),
            },
            1 => Op::LoadApprox {
                pc: rng.gen_range(0u64..8),
                block: rng.gen_range(0u64..64),
            },
            2 => Op::Store {
                pc: rng.gen_range(0u64..8),
                block: rng.gen_range(0u64..64),
                v: rng.gen_range(-50i32..50),
            },
            3 => Op::Tick(rng.gen_range(1usize..10) as u32),
            _ => Op::Thread(rng.gen_range(0usize..4)),
        })
        .collect()
}

fn drive(cfg: SimConfig, ops: &[Op]) -> lva_sim::Phase1Stats {
    let mut h = SimHarness::new(cfg);
    let base = h.alloc(64 * 64, 64);
    for b in 0..64u64 {
        h.memory_mut().write_i32(base.offset(b * 64), b as i32);
    }
    for op in ops {
        match *op {
            Op::LoadPrecise { pc, block } => {
                let _ = h.load(Pc(pc), base.offset(block * 64), ValueType::I32, false);
            }
            Op::LoadApprox { pc, block } => {
                let _ = h.load(
                    Pc(0x100 + pc),
                    base.offset(block * 64),
                    ValueType::I32,
                    true,
                );
            }
            Op::Store { pc, block, v } => {
                h.store_i32(Pc(0x200 + pc), base.offset(block * 64), v);
            }
            Op::Tick(n) => h.tick(n),
            Op::Thread(t) => h.set_thread(t),
        }
    }
    h.finish().stats
}

/// Counter algebra holds for every mechanism under arbitrary traffic.
#[test]
fn harness_counters_are_consistent() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let ops = arb_ops(&mut rng);
        for cfg in [
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::lvp(lva_core::LvpConfig::baseline()),
            SimConfig::realistic_lvp(),
            SimConfig::prefetch(4),
            SimConfig::lva(ApproximatorConfig::with_degree(8)),
        ] {
            let s = drive(cfg, &ops);
            let t = &s.total;
            assert_eq!(t.l1_hits + t.raw_misses, t.loads);
            assert!(t.approx_loads <= t.loads);
            assert!(t.approximations + t.lvp_correct <= t.raw_misses);
            assert!(s.effective_misses() <= t.raw_misses);
            assert!(t.instructions >= t.loads + t.stores);
        }
    }
}

/// Precise execution returns exactly the stored values, always.
#[test]
fn precise_loads_return_stored_values() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let n = rng.gen_range(1usize..60);
        let mut h = SimHarness::new(SimConfig::precise());
        let base = h.alloc(64 * 32, 64);
        let mut shadow = [0i32; 32];
        for i in 0..n {
            let block = rng.gen_range(0u64..32);
            let v = rng.gen_range(-100i32..100);
            h.set_thread(i % 4);
            h.store_i32(Pc(1), base.offset(block * 64), v);
            shadow[block as usize] = v;
            let got = h
                .load(Pc(2), base.offset(block * 64), ValueType::I32, false)
                .as_i32();
            assert_eq!(got, v);
        }
        for (b, &v) in shadow.iter().enumerate() {
            let got = h
                .load(Pc(3), base.offset(b as u64 * 64), ValueType::I32, false)
                .as_i32();
            assert_eq!(got, v);
        }
    }
}

/// Precise fetch:miss is exactly 1:1 no matter the pattern.
#[test]
fn precise_fetches_equal_misses() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let ops = arb_ops(&mut rng);
        let s = drive(SimConfig::precise(), &ops);
        assert_eq!(s.fetches(), s.total.raw_misses);
    }
}

/// LVA with any degree never fetches more than precise would.
#[test]
fn lva_never_fetches_more_than_misses() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let ops = arb_ops(&mut rng);
        let degree = rng.gen_range(0u32..17);
        let s = drive(
            SimConfig::lva(ApproximatorConfig::with_degree(degree)),
            &ops,
        );
        assert!(s.fetches() <= s.total.raw_misses);
    }
}

/// The full system completes (no protocol deadlock) and conserves
/// instructions for arbitrary small multi-core traces, under MSI and
/// MESI, with and without LVA and the hetero NoC.
#[test]
fn fullsystem_never_deadlocks() {
    for case in 0..64 {
        let mut rng = rng_for(5, case);
        let cores = rng.gen_range(1usize..4);
        let traces: Vec<ThreadTrace> = (0..cores)
            .map(|_| {
                let n = rng.gen_range(0usize..60);
                let mut t = ThreadTrace::new();
                for _ in 0..n {
                    let kind = rng.gen_range(0usize..3);
                    let pc = rng.gen_range(0u64..6);
                    let b = rng.gen_range(0u64..24);
                    match kind {
                        0 => t.push_load(
                            Pc(pc),
                            Addr(b * 64),
                            ValueType::I32,
                            false,
                            Value::from_i32(1),
                        ),
                        1 => t.push_load(
                            Pc(0x40 + pc),
                            Addr(b * 64),
                            ValueType::I32,
                            true,
                            Value::from_i32(2),
                        ),
                        _ => t.push_store(Pc(0x80 + pc), Addr(b * 64), ValueType::I32),
                    }
                    t.push_compute(3);
                }
                t
            })
            .collect();
        let expected: u64 = traces.iter().map(|t| t.stats().instructions).sum();

        let configs = [
            FullSystemConfig::paper(MechanismKind::Precise),
            FullSystemConfig::paper(MechanismKind::Precise).with_mesi(),
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::with_degree(4))),
            FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::baseline()))
                .with_hetero_noc(lva_noc::LowPowerPlane::default()),
        ];
        for mut cfg in configs {
            cfg.max_cycles = 2_000_000; // tight deadlock guard for tests
            let stats = FullSystem::new(cfg, traces.clone())
                .run()
                .expect("no deadlock");
            assert_eq!(stats.instructions, expected);
        }
    }
}
