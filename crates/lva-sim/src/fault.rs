//! Deterministic fault injection for the phase-1 load path.
//!
//! Approximate hardware is attractive precisely where reliability is
//! cheapest to relax, so the approximator's SRAM structures are the natural
//! place faults land. This module injects three seed-driven fault classes:
//!
//! * **Table corruption** — a random bit flip in an approximator table
//!   entry: a stored history *value*, the *tag*, or the *confidence*
//!   counter (weighted by the structure's rough bit share).
//! * **Dropped drains** — a training fill arrives but the drain into the
//!   approximator is lost (the L1 install still happens: the block did
//!   arrive, only the mechanism's bookkeeping missed it).
//! * **Delayed fetches** — a training value takes extra load-ticks to reach
//!   the history buffers, stretching the §VI-C value-delay window.
//!
//! Faults exist to exercise the [`crate::govern`] per-PC budget ladder:
//! corrupted history produces bad approximations, the ladder's error EWMA
//! catches them, and the offending PCs are demoted. Injection is fully deterministic
//! — a per-thread [`Rng64`] stream derived from the configured seed and the
//! thread id — so faulty runs fingerprint-stably reproduce across sweep
//! worker counts (asserted by the determinism suite).

use lva_core::{LoadValueApproximator, Rng64, Value};

/// Configuration of the deterministic fault injector. All rates are
/// probabilities in `[0, 1]` evaluated per opportunity.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault streams. Each thread derives its own stream from
    /// this seed and its thread id.
    pub seed: u64,
    /// Per-approximable-miss probability of corrupting one table entry.
    pub table_rate: f64,
    /// Per-drain probability of dropping the training update.
    pub drop_rate: f64,
    /// Per-enqueue probability of delaying a training fetch.
    pub delay_rate: f64,
    /// Extra load-ticks added to a delayed fetch.
    pub delay_extra: u64,
}

impl FaultConfig {
    /// A quiet injector (all rates zero) with the given seed; enable
    /// individual fault classes from here.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            table_rate: 0.0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay_extra: 8,
        }
    }

    /// Same configuration with table corruption at `rate`.
    #[must_use]
    pub fn with_table_rate(mut self, rate: f64) -> Self {
        self.table_rate = rate;
        self
    }

    /// Same configuration with dropped drains at `rate`.
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }
}

/// One thread's fault stream. Decisions are drawn lazily — a rate of zero
/// consumes no randomness for that class — so enabling one fault class does
/// not perturb the stream of another.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    cfg: FaultConfig,
    table_rng: Rng64,
    drop_rng: Rng64,
    delay_rng: Rng64,
}

/// Distinct stream tags keep the three fault classes statistically
/// independent while derived from one seed.
const STREAM_TABLE: u64 = 0x7461_626c_6500_0000; // "table"
const STREAM_DROP: u64 = 0x6472_6f70_0000_0000; // "drop"
const STREAM_DELAY: u64 = 0x6465_6c61_7900_0000; // "delay"

fn stream(seed: u64, thread: u64, tag: u64) -> Rng64 {
    // SplitMix-style mixing of (seed, thread, tag) into one 64-bit state;
    // Rng64::new finishes the scrambling.
    let mut x = seed ^ tag;
    x = x.wrapping_add(thread.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    Rng64::new(x)
}

impl FaultInjector {
    /// Builds the injector for `thread` from the shared configuration.
    #[must_use]
    pub(crate) fn for_thread(cfg: &FaultConfig, thread: u64) -> Self {
        FaultInjector {
            table_rng: stream(cfg.seed, thread, STREAM_TABLE),
            drop_rng: stream(cfg.seed, thread, STREAM_DROP),
            delay_rng: stream(cfg.seed, thread, STREAM_DELAY),
            cfg: cfg.clone(),
        }
    }

    /// Rolls the table-corruption fault. On a hit, flips one bit in a
    /// uniformly chosen table entry — in a stored history value, the tag,
    /// or the confidence counter — and returns `true`.
    pub(crate) fn corrupt_table(&mut self, approximator: &mut LoadValueApproximator) -> bool {
        if self.cfg.table_rate <= 0.0 || !self.table_rng.gen_bool(self.cfg.table_rate) {
            return false;
        }
        let table = approximator.table_mut();
        let entries = table.len();
        let index = (self.table_rng.gen_u64() % entries as u64) as usize;
        // Weight victim structures roughly by bit share: history values
        // dominate the entry, then the tag, then the confidence counter.
        match self.table_rng.gen_u64() % 8 {
            0 => {
                let mask = 1u64 << (self.table_rng.gen_u64() % 21);
                table.corrupt_tag(index, mask);
            }
            1 => {
                let v = self.table_rng.gen_u64() as i32;
                table.confidence_mut(index).force_value(v);
            }
            _ => {
                let bit = self.table_rng.gen_u64();
                if let Some(v) = table.lhb_newest_mut(index) {
                    let width = 8 * v.value_type().size_bytes() as u32;
                    *v = Value::from_bits(
                        v.bits() ^ (1 << (bit % u64::from(width))),
                        v.value_type(),
                    );
                }
            }
        }
        true
    }

    /// Rolls the dropped-drain fault for one training fill.
    pub(crate) fn should_drop_drain(&mut self) -> bool {
        self.cfg.drop_rate > 0.0 && self.drop_rng.gen_bool(self.cfg.drop_rate)
    }

    /// Rolls the delayed-fetch fault for one training enqueue; returns the
    /// extra load-ticks to add (0 when the fault does not fire).
    pub(crate) fn extra_delay(&mut self) -> u64 {
        if self.cfg.delay_rate > 0.0 && self.delay_rng.gen_bool(self.cfg.delay_rate) {
            self.cfg.delay_extra
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::{ApproximatorConfig, Pc, Value, ValueType};

    fn warm_approximator() -> LoadValueApproximator {
        let mut a = LoadValueApproximator::new(ApproximatorConfig::baseline());
        for i in 0..32u64 {
            let token = a.on_miss(Pc(0x100 + i % 4), ValueType::F32).token();
            a.train(token, Value::from_f32(4.0));
        }
        a
    }

    #[test]
    fn quiet_config_never_fires_and_draws_no_randomness() {
        let cfg = FaultConfig::seeded(7);
        let mut inj = FaultInjector::for_thread(&cfg, 0);
        let mut a = warm_approximator();
        for _ in 0..1000 {
            assert!(!inj.corrupt_table(&mut a));
            assert!(!inj.should_drop_drain());
            assert_eq!(inj.extra_delay(), 0);
        }
    }

    #[test]
    fn same_seed_same_thread_is_deterministic() {
        let cfg = FaultConfig {
            delay_rate: 0.3,
            delay_extra: 16,
            ..FaultConfig::seeded(42)
                .with_table_rate(0.3)
                .with_drop_rate(0.3)
        };
        let mut a1 = warm_approximator();
        let mut a2 = warm_approximator();
        let mut i1 = FaultInjector::for_thread(&cfg, 1);
        let mut i2 = FaultInjector::for_thread(&cfg, 1);
        for _ in 0..500 {
            assert_eq!(i1.corrupt_table(&mut a1), i2.corrupt_table(&mut a2));
            assert_eq!(i1.should_drop_drain(), i2.should_drop_drain());
            assert_eq!(i1.extra_delay(), i2.extra_delay());
        }
    }

    #[test]
    fn threads_get_distinct_streams() {
        let cfg = FaultConfig::seeded(42).with_drop_rate(0.5);
        let mut i0 = FaultInjector::for_thread(&cfg, 0);
        let mut i1 = FaultInjector::for_thread(&cfg, 1);
        let a: Vec<bool> = (0..64).map(|_| i0.should_drop_drain()).collect();
        let b: Vec<bool> = (0..64).map(|_| i1.should_drop_drain()).collect();
        assert_ne!(a, b, "per-thread fault streams must differ");
    }

    #[test]
    fn table_corruption_actually_fires() {
        let cfg = FaultConfig::seeded(3).with_table_rate(1.0);
        let mut inj = FaultInjector::for_thread(&cfg, 0);
        let mut a = warm_approximator();
        let mut fired = 0;
        for _ in 0..16 {
            if inj.corrupt_table(&mut a) {
                fired += 1;
            }
        }
        assert_eq!(fired, 16, "rate 1.0 must fire on every opportunity");
    }

    #[test]
    fn delay_fault_returns_configured_extra() {
        let cfg = FaultConfig {
            delay_rate: 1.0,
            delay_extra: 12,
            ..FaultConfig::seeded(3)
        };
        let mut inj = FaultInjector::for_thread(&cfg, 0);
        assert_eq!(inj.extra_delay(), 12);
    }
}
