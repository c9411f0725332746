//! swaptions — Monte-Carlo swaption pricing on an HJM-style rate model.
//!
//! §IV: like blackscholes, the inputs are arrays of floating-point values
//! (the forward-rate curve and swaption terms) with heavy redundancy,
//! loaded repeatedly throughout the simulation but never updated. We
//! annotate those input loads. Per-swaption prices from the approximate
//! run are compared to the precise prices and averaged with equal weights.
//!
//! Table I note: swaptions has an essentially zero L1 MPKI (4.9e-05) — a
//! tiny working set under enormous compute — which our scaling mirrors.

use crate::util::{interleaved_chunks, relative_error, seeded_rng};
use crate::{Kernel, WorkloadScale};
use lva_core::Rng64;
use lva_core::{Pc, ValueType};
use lva_sim::SimHarness;

const PC_BASE: u64 = 0x6000;
const PC_STRIKE: Pc = Pc(PC_BASE);
const PC_MATURITY: Pc = Pc(PC_BASE + 4);
const PC_TENOR: Pc = Pc(PC_BASE + 8);
const PC_CURVE: Pc = Pc(PC_BASE + 12);
const PC_VOL: Pc = Pc(PC_BASE + 16);

const CURVE_POINTS: usize = 11;
const TICKS_PER_STEP: u32 = 40;
const TICKS_PER_TRIAL: u32 = 60;

/// The swaptions kernel.
#[derive(Debug, Clone)]
pub struct Swaptions {
    n: usize,
    trials: usize,
    strikes: Vec<f64>,
    maturities: Vec<f64>,
    tenors: Vec<f64>,
    vols: Vec<f64>,
    /// The initial forward curve, shared by all swaptions (redundant data).
    curve: [f64; CURVE_POINTS],
    /// Input-perturbation seed (0 for the canonical inputs).
    seed: u64,
}

impl Swaptions {
    /// Builds the deterministic swaption portfolio, perturbing the input
    /// generation with `seed` — the paper averages every measurement over
    /// 5 simulation runs, which [`crate::registry_seeded`] reproduces.
    #[must_use]
    pub fn with_seed(scale: WorkloadScale, seed: u64) -> Self {
        let (n, trials) = match scale {
            WorkloadScale::Test => (4, 64),
            WorkloadScale::Small => (16, 256),
            WorkloadScale::Medium => (32, 512),
        };
        let mut rng = seeded_rng(0x5A ^ seed, 0);
        // Redundant parameter pools, like the PARSEC input.
        // PARSEC's simlarge input replicates one swaption's terms across
        // the whole portfolio, which is exactly why the paper finds these
        // inputs so approximable; we keep a small (~7%) tail of variants.
        let pick = |rng: &mut Rng64, common: f64, rare: f64| {
            if rng.gen_bool(0.93) {
                common
            } else {
                rare
            }
        };
        let strikes = (0..n).map(|_| pick(&mut rng, 0.03, 0.035)).collect();
        let maturities = (0..n).map(|_| pick(&mut rng, 1.0, 2.0)).collect();
        let tenors = (0..n).map(|_| pick(&mut rng, 10.0, 5.0)).collect();
        let vols = (0..n).map(|_| pick(&mut rng, 0.10, 0.15)).collect();
        let mut curve = [0.0; CURVE_POINTS];
        for (i, c) in curve.iter_mut().enumerate() {
            *c = 0.025 + 0.002 * i as f64; // gently upward-sloping
        }
        Swaptions {
            seed,
            n,
            trials,
            strikes,
            maturities,
            tenors,
            vols,
            curve,
        }
    }
}

impl Kernel for Swaptions {
    type Output = Vec<f64>;

    fn name(&self) -> &'static str {
        "swaptions"
    }

    fn run(&self, h: &mut SimHarness) -> Vec<f64> {
        let n = self.n as u64;
        let strike = h.alloc(8 * n, 64);
        let maturity = h.alloc(8 * n, 64);
        let tenor = h.alloc(8 * n, 64);
        let vol = h.alloc(8 * n, 64);
        let curve = h.alloc(8 * CURVE_POINTS as u64, 64);
        let m = h.memory_mut();
        m.write_f64_slice(strike, &self.strikes);
        m.write_f64_slice(maturity, &self.maturities);
        m.write_f64_slice(tenor, &self.tenors);
        m.write_f64_slice(vol, &self.vols);
        m.write_f64_slice(curve, &self.curve);

        let mut prices = vec![0.0f64; self.n];
        for (thread, range) in interleaved_chunks(self.n, 1) {
            h.set_thread(thread);
            for s in range {
                let [k, mat, ten, sigma] = h.load_batch_n(&[
                    (PC_STRIKE, strike.offset(8 * s as u64), ValueType::F64, true),
                    (
                        PC_MATURITY,
                        maturity.offset(8 * s as u64),
                        ValueType::F64,
                        true,
                    ),
                    (PC_TENOR, tenor.offset(8 * s as u64), ValueType::F64, true),
                    (PC_VOL, vol.offset(8 * s as u64), ValueType::F64, true),
                ]);
                let (k, mat, ten, sigma) = (k.as_f64(), mat.as_f64(), ten.as_f64(), sigma.as_f64());
                // Guard approximation-perturbed parameters.
                let mat = mat.clamp(0.25, 30.0);
                let ten = ten.clamp(1.0, 30.0);
                let sigma = sigma.clamp(1e-3, 1.0);

                let mut rng = seeded_rng(0x5A17 ^ self.seed, s as u64);
                let steps = 16usize;
                let dt = mat / steps as f64;
                let mut payoff_sum = 0.0f64;
                for _ in 0..self.trials {
                    // Evolve the short rate from the forward curve under a
                    // lognormal HJM-ish single-factor model.
                    let idx = ((mat as usize).min(CURVE_POINTS - 1)) as u64;
                    let f0 = h.load_approx_f64(PC_CURVE, curve.offset(8 * idx));
                    let mut rate = f0.clamp(1e-4, 0.5);
                    let mut discount = 1.0f64;
                    for _ in 0..steps {
                        // Box–Muller on seeded uniforms (host-side noise).
                        let u1 = rng.gen_range(1e-9f64..1.0);
                        let u2 = rng.gen_range(0.0f64..1.0);
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        rate *= (sigma * dt.sqrt() * z - 0.5 * sigma * sigma * dt).exp();
                        rate = rate.clamp(1e-4, 0.5);
                        discount *= (-rate * dt).exp();
                        h.tick(TICKS_PER_STEP);
                    }
                    // Payer-swaption payoff: annuity-weighted rate excess.
                    let annuity: f64 = (1..=(ten as usize)).map(|i| (-rate * i as f64).exp()).sum();
                    let payoff = (rate - k).max(0.0) * annuity * discount;
                    payoff_sum += payoff;
                    h.tick(TICKS_PER_TRIAL);
                }
                prices[s] = payoff_sum / self.trials as f64;
            }
        }
        prices
    }

    /// Mean relative price error, all prices weighted equally (§IV).
    fn output_error(&self, precise: &Vec<f64>, approx: &Vec<f64>) -> f64 {
        assert_eq!(precise.len(), approx.len(), "portfolio size changed");
        if precise.is_empty() {
            return 0.0;
        }
        precise
            .iter()
            .zip(approx)
            .map(|(p, a)| relative_error(*a, *p))
            .sum::<f64>()
            / precise.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use lva_sim::SimConfig;

    #[test]
    fn prices_are_positive_and_finite() {
        let wl = Swaptions::with_seed(WorkloadScale::Test, 0);
        let mut h = lva_sim::SimHarness::new(SimConfig::precise());
        let prices = wl.run(&mut h);
        assert_eq!(prices.len(), 4);
        for p in prices {
            assert!(p.is_finite() && p >= 0.0, "price {p}");
        }
    }

    #[test]
    fn near_zero_mpki_like_table_i() {
        // Table I: swaptions MPKI = 4.9e-05 — compute-bound, tiny data.
        let wl = Swaptions::with_seed(WorkloadScale::Test, 0);
        let run = wl.execute(&SimConfig::precise());
        assert!(
            run.precise_stats.mpki() < 0.2,
            "mpki {}",
            run.precise_stats.mpki()
        );
    }

    #[test]
    fn lva_error_stays_small() {
        let wl = Swaptions::with_seed(WorkloadScale::Test, 0);
        let run = wl.execute(&SimConfig::baseline_lva());
        assert!(run.output_error < 0.15, "error {}", run.output_error);
    }

    #[test]
    fn five_approximate_pcs() {
        let wl = Swaptions::with_seed(WorkloadScale::Test, 0);
        let run = wl.execute(&SimConfig::precise());
        assert_eq!(run.stats.static_approx_pcs(), 5);
    }
}
