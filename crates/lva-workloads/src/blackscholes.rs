//! blackscholes — option pricing with partial differential equations.
//!
//! §IV: the input data is arrays of floating-point values with heavy
//! redundancy — "an underlying asset's current price in blackscholes'
//! simlarge input set takes on four possible values, two of which occur
//! over 98% of the time" — read repeatedly but never updated, which makes
//! them ideal approximation targets. We annotate the five per-option input
//! arrays (spot, strike, rate, volatility, time) and price each option with
//! the Black–Scholes closed form. The output error is the percentage of
//! prices whose relative error exceeds 1% (errors in option pricing are
//! tolerable; cf. Black's approximation).

use crate::util::{cndf, interleaved_chunks, relative_error, seeded_rng, MixHasher};
use crate::{Kernel, WorkloadScale};
use lva_core::{Addr, Pc, ValueType};
use lva_sim::SimHarness;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

const PC_BASE: u64 = 0x1000;
const PC_SPOT: Pc = Pc(PC_BASE);
const PC_STRIKE: Pc = Pc(PC_BASE + 4);
const PC_RATE: Pc = Pc(PC_BASE + 8);
const PC_VOL: Pc = Pc(PC_BASE + 12);
const PC_TIME: Pc = Pc(PC_BASE + 16);
const PC_TYPE: Pc = Pc(PC_BASE + 20);
const PC_OUT: Pc = Pc(PC_BASE + 24);

/// Instructions of arithmetic modelled per option priced (exp/log/sqrt
/// heavy closed form).
const TICKS_PER_OPTION: u32 = 320;

/// One option's input parameters.
#[derive(Debug, Clone, Copy)]
struct OptionInput {
    spot: f32,
    strike: f32,
    rate: f32,
    volatility: f32,
    time: f32,
    is_call: bool,
}

/// The blackscholes kernel.
#[derive(Debug, Clone)]
pub struct Blackscholes {
    options: Vec<OptionInput>,
}

impl Blackscholes {
    /// Generates the deterministic option portfolio for `scale`.
    #[must_use]
    pub fn new(scale: WorkloadScale) -> Self {
        Self::with_seed(scale, 0)
    }

    /// Like [`new`](Self::new), but perturbing the input generation with
    /// `seed` — the paper averages every measurement over 5 simulation
    /// runs, which [`crate::registry_seeded`] reproduces.
    #[must_use]
    pub fn with_seed(scale: WorkloadScale, seed: u64) -> Self {
        let n = match scale {
            WorkloadScale::Test => 3_000,
            WorkloadScale::Small => 24_000,
            WorkloadScale::Medium => 64_000,
        };
        let mut rng = seeded_rng(0xB5 ^ seed, 0);
        // The paper's observed redundancy: 4 spot values, 2 covering >98%.
        let spots = [100.0f32, 42.0, 61.25, 87.5];
        let spot_cdf = [0.55f64, 0.985, 0.995, 1.0];
        let strikes = [95.0f32, 100.0, 105.0, 110.0, 40.0];
        let vols = [0.10f32, 0.20, 0.35];
        let times = [0.25f32, 0.5, 1.0, 2.0];
        let options = (0..n)
            .map(|_| {
                let u = rng.gen_f64();
                let spot_idx = spot_cdf.iter().position(|&c| u <= c).unwrap_or(3);
                OptionInput {
                    spot: spots[spot_idx],
                    strike: strikes[rng.gen_range(0..strikes.len())],
                    rate: 0.05,
                    volatility: vols[rng.gen_range(0..vols.len())],
                    time: times[rng.gen_range(0..times.len())],
                    is_call: rng.gen_bool(0.5),
                }
            })
            .collect();
        Blackscholes { options }
    }
}

/// The Black–Scholes closed form.
fn price(spot: f64, strike: f64, rate: f64, vol: f64, time: f64, call: bool) -> f64 {
    // Guard the approximation-perturbed domain: clamp to sane positives so
    // a clobbered input cannot produce NaN (the paper's guidelines exclude
    // denominators from approximation; vol*sqrt(t) is one, so floor it).
    let spot = spot.max(1e-6);
    let strike = strike.max(1e-6);
    let vol = vol.max(1e-4);
    let time = time.max(1e-4);
    let d1 = ((spot / strike).ln() + (rate + vol * vol / 2.0) * time) / (vol * time.sqrt());
    let d2 = d1 - vol * time.sqrt();
    if call {
        spot * cndf(d1) - strike * (-rate * time).exp() * cndf(d2)
    } else {
        strike * (-rate * time).exp() * cndf(-d2) - spot * cndf(-d1)
    }
}

impl Kernel for Blackscholes {
    type Output = Vec<f64>;

    fn name(&self) -> &'static str {
        "blackscholes"
    }

    fn run(&self, h: &mut SimHarness) -> Vec<f64> {
        let n = self.options.len() as u64;
        // Parallel input arrays (f32) + one output array (f64).
        let spot = h.alloc(4 * n, 64);
        let strike = h.alloc(4 * n, 64);
        let rate = h.alloc(4 * n, 64);
        let vol = h.alloc(4 * n, 64);
        let time = h.alloc(4 * n, 64);
        let kind = h.alloc(n, 64);
        let out = h.alloc(8 * n, 64);
        // Bulk-upload the input arrays (setup writes are untracked; the
        // slice writes are byte-identical to a per-element loop). One pass
        // over the options fills all six columns.
        let len = self.options.len();
        let mut col_spot = Vec::with_capacity(len);
        let mut col_strike = Vec::with_capacity(len);
        let mut col_rate = Vec::with_capacity(len);
        let mut col_vol = Vec::with_capacity(len);
        let mut col_time = Vec::with_capacity(len);
        let mut col_kind = Vec::with_capacity(len);
        for o in &self.options {
            col_spot.push(o.spot);
            col_strike.push(o.strike);
            col_rate.push(o.rate);
            col_vol.push(o.volatility);
            col_time.push(o.time);
            col_kind.push(u8::from(o.is_call));
        }
        let m = h.memory_mut();
        m.write_f32_slice(spot, &col_spot);
        m.write_f32_slice(strike, &col_strike);
        m.write_f32_slice(rate, &col_rate);
        m.write_f32_slice(vol, &col_vol);
        m.write_f32_slice(time, &col_time);
        m.write_u8_slice(kind, &col_kind);

        // The whole point of this workload is input redundancy (§IV: four
        // spot values, two covering >98%), and approximation only narrows
        // the domain further (LHB averages over those few values). `price`
        // is a pure function of its six arguments, so memoizing on the
        // exact input bits returns bit-identical outputs while skipping
        // nearly every closed-form evaluation.
        // Keyed on the exact input bits of one `price` call.
        type MemoKey = (u32, u32, u32, u32, u32, bool);
        let mut memo: HashMap<MemoKey, f64, BuildHasherDefault<MixHasher>> =
            HashMap::with_capacity_and_hasher(1024, BuildHasherDefault::default());

        let at = |base: Addr, i: usize| base.offset(4 * i as u64);
        for (thread, range) in interleaved_chunks(self.options.len(), 256) {
            h.set_thread(thread);
            for i in range {
                // The five input loads are annotated approximate (§IV); the
                // option type steers control flow, so it stays precise. The
                // group is issued as one batch — per-option dispatch is the
                // dominant simulation cost at this scale.
                let [s, k, r, v, t, call] = h.load_batch_n(&[
                    (PC_SPOT, at(spot, i), ValueType::F32, true),
                    (PC_STRIKE, at(strike, i), ValueType::F32, true),
                    (PC_RATE, at(rate, i), ValueType::F32, true),
                    (PC_VOL, at(vol, i), ValueType::F32, true),
                    (PC_TIME, at(time, i), ValueType::F32, true),
                    (PC_TYPE, kind.offset(i as u64), ValueType::U8, false),
                ]);
                let (s, k, r, v, t) = (s.as_f32(), k.as_f32(), r.as_f32(), v.as_f32(), t.as_f32());
                let call = call.as_u8() != 0;
                let key = (
                    s.to_bits(),
                    k.to_bits(),
                    r.to_bits(),
                    v.to_bits(),
                    t.to_bits(),
                    call,
                );
                let p = match memo.get(&key) {
                    Some(&p) => p,
                    None => {
                        let p = price(
                            f64::from(s),
                            f64::from(k),
                            f64::from(r),
                            f64::from(v),
                            f64::from(t),
                            call,
                        );
                        memo.insert(key, p);
                        p
                    }
                };
                h.tick(TICKS_PER_OPTION);
                h.store_f64(PC_OUT, out.offset(8 * i as u64), p);
            }
        }

        (0..self.options.len())
            .map(|i| h.memory().read_f64(out.offset(8 * i as u64)))
            .collect()
    }

    /// Percentage of prices with relative error above 1% (§IV).
    fn output_error(&self, precise: &Vec<f64>, approx: &Vec<f64>) -> f64 {
        assert_eq!(precise.len(), approx.len(), "portfolio size changed");
        if precise.is_empty() {
            return 0.0;
        }
        let bad = precise
            .iter()
            .zip(approx)
            .filter(|(p, a)| relative_error(**a, **p) > 0.01)
            .count();
        bad as f64 / precise.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use lva_sim::SimConfig;

    #[test]
    fn closed_form_satisfies_put_call_parity() {
        let (s, k, r, v, t) = (100.0, 95.0, 0.05, 0.2, 1.0);
        let call = price(s, k, r, v, t, true);
        let put = price(s, k, r, v, t, false);
        // C - P = S - K e^{-rt}
        let parity = s - k * (-r * t).exp();
        assert!((call - put - parity).abs() < 1e-6, "{call} {put} {parity}");
        assert!(call > 0.0 && put > 0.0);
    }

    #[test]
    fn price_is_robust_to_perturbed_inputs() {
        // Approximation can hand the formula odd values; it must stay finite.
        for s in [0.0, -5.0, 1e9] {
            let p = price(s, 100.0, 0.05, 0.2, 1.0, true);
            assert!(p.is_finite(), "spot {s} -> {p}");
        }
        assert!(price(100.0, 100.0, 0.05, 0.0, 1.0, true).is_finite());
    }

    #[test]
    fn precise_run_has_zero_error() {
        let wl = Blackscholes::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::precise());
        assert_eq!(run.output_error, 0.0);
        assert!(run.stats.total.loads > 0);
        assert_eq!(run.stats.static_approx_pcs(), 5);
    }

    #[test]
    fn lva_reduces_mpki_with_low_error() {
        let wl = Blackscholes::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::baseline_lva());
        assert!(
            run.normalized_mpki() < 0.9,
            "normalized MPKI {}",
            run.normalized_mpki()
        );
        // Redundant inputs are very approximable; paper reports low error.
        assert!(run.output_error < 0.15, "error {}", run.output_error);
    }

    #[test]
    fn outputs_are_deterministic() {
        let wl = Blackscholes::new(WorkloadScale::Test);
        let a = wl.execute(&SimConfig::precise());
        let b = wl.execute(&SimConfig::precise());
        assert_eq!(a.stats.total.instructions, b.stats.total.instructions);
        assert_eq!(a.stats.mpki(), b.stats.mpki());
    }

    #[test]
    fn input_redundancy_matches_the_paper() {
        let wl = Blackscholes::new(WorkloadScale::Small);
        let dominant = wl
            .options
            .iter()
            .filter(|o| o.spot == 100.0 || o.spot == 42.0)
            .count() as f64
            / wl.options.len() as f64;
        assert!(
            dominant > 0.97,
            "two spot values must cover >97%: {dominant}"
        );
    }
}
