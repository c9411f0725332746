//! x264 — H.264 motion estimation.
//!
//! §IV: the encoder divides frames into blocks and searches previously
//! encoded frames for similar content to estimate motion — a frequently
//! visited region of code. The approximated data are the integer pixel
//! values of the reference frame read inside the SAD (sum of absolute
//! differences) search loops. Each search position's load is a distinct
//! static instruction after unrolling, which is why x264 has the most
//! approximate load PCs of the suite (Fig. 12, ~300). The output error
//! compares peak signal-to-noise ratio and bit rate, weighted equally.

use crate::util::{interleaved_chunks, relative_error, seeded_rng};
use crate::{Kernel, WorkloadScale};
use lva_core::{Pc, ValueType};
use lva_sim::{LoadReq, SimHarness};

const PC_BASE: u64 = 0x4000;
const BLOCK: usize = 16;
/// SAD samples a 4x4 sub-grid of each 16x16 block (standard subsampled SAD).
const SAD_STEP: usize = 4;
const TICKS_PER_SAD_SAMPLE: u32 = 3;
const TICKS_PER_POSITION: u32 = 10;

/// Encoder output: quality and size of the encoded stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeResult {
    /// Peak signal-to-noise ratio of the motion-compensated prediction, dB.
    pub psnr_db: f64,
    /// Bit-rate proxy: motion-vector bits plus residual-energy bits.
    pub bitrate_bits: f64,
}

/// The x264 motion-estimation kernel.
#[derive(Debug, Clone)]
pub struct X264 {
    width: usize,
    height: usize,
    search: i32,
    /// Reference frame.
    prev: Vec<u8>,
    /// Current frame to encode.
    cur: Vec<u8>,
}

impl X264 {
    /// Builds a deterministic frame pair — the current frame is the
    /// reference under per-region translational motion plus noise —
    /// perturbing the input generation with `seed`: the paper averages
    /// every measurement over 5 simulation runs, which
    /// [`crate::registry_seeded`] reproduces.
    #[must_use]
    pub fn with_seed(scale: WorkloadScale, seed: u64) -> Self {
        let (width, height, search) = match scale {
            WorkloadScale::Test => (64, 64, 3),
            WorkloadScale::Small => (320, 192, 6),
            WorkloadScale::Medium => (640, 360, 6),
        };
        let mut rng = seeded_rng(0x264 ^ seed, 0);
        // Reference frame: smooth gradients + texture, like natural video.
        let mut prev = vec![0u8; width * height];
        for y in 0..height {
            for x in 0..width {
                let base = 96.0
                    + 64.0 * ((x as f64) / 37.0).sin()
                    + 48.0 * ((y as f64) / 23.0).cos()
                    + 24.0 * (((x + 2 * y) as f64) / 11.0).sin();
                let noise = rng.gen_range(-6.0f64..6.0);
                prev[y * width + x] = (base + noise).clamp(0.0, 255.0) as u8;
            }
        }
        // Current frame: global pan (+2, +1) with small per-pixel noise.
        let mut cur = vec![0u8; width * height];
        for y in 0..height {
            for x in 0..width {
                let sx = (x as i32 + 2).clamp(0, width as i32 - 1) as usize;
                let sy = (y as i32 + 1).clamp(0, height as i32 - 1) as usize;
                let noise = rng.gen_range(-3.0f64..3.0);
                cur[y * width + x] =
                    (f64::from(prev[sy * width + sx]) + noise).clamp(0.0, 255.0) as u8;
            }
        }
        X264 {
            width,
            height,
            search,
            prev,
            cur,
        }
    }

    /// Static PC for the reference-frame load at search offset `(dx, dy)` —
    /// one per unrolled search position.
    fn search_pc(&self, dx: i32, dy: i32) -> Pc {
        let side = (2 * self.search + 1) as u64;
        let idx = (dy + self.search) as u64 * side + (dx + self.search) as u64;
        Pc(PC_BASE + 4 * idx)
    }
}

impl Kernel for X264 {
    type Output = EncodeResult;

    fn name(&self) -> &'static str {
        "x264"
    }

    fn run(&self, h: &mut SimHarness) -> EncodeResult {
        let npix = (self.width * self.height) as u64;
        let prev = h.alloc(npix, 64);
        let cur = h.alloc(npix, 64);
        let m = h.memory_mut();
        m.write_u8_slice(prev, &self.prev);
        m.write_u8_slice(cur, &self.cur);

        let blocks_x = self.width / BLOCK;
        let blocks_y = self.height / BLOCK;
        let nblocks = blocks_x * blocks_y;

        let mut sq_err_sum = 0.0f64;
        let mut mv_bits = 0.0f64;
        let mut residual_bits = 0.0f64;

        for (thread, range) in interleaved_chunks(nblocks, 4) {
            h.set_thread(thread);
            for b in range {
                let bx = (b % blocks_x) * BLOCK;
                let by = (b / blocks_x) * BLOCK;

                // Full search over the window: subsampled SAD per position.
                let mut best = (u32::MAX, 0i32, 0i32);
                for dy in -self.search..=self.search {
                    for dx in -self.search..=self.search {
                        let pc = self.search_pc(dx, dy);
                        // One batch over the sub-grid, preserving the
                        // current/reference interleave; the per-sample
                        // arithmetic ticks are accounted after it.
                        const SAMPLES: usize = (BLOCK / SAD_STEP) * (BLOCK / SAD_STEP);
                        let reqs: [LoadReq; 2 * SAMPLES] = std::array::from_fn(|k| {
                            let s = k / 2;
                            let sy = (s / (BLOCK / SAD_STEP)) * SAD_STEP;
                            let sx = (s % (BLOCK / SAD_STEP)) * SAD_STEP;
                            let cx = bx + sx;
                            let cy = by + sy;
                            if k % 2 == 0 {
                                // Current-block pixel: precise (§IV).
                                let a = cur.offset((cy * self.width + cx) as u64);
                                (Pc(PC_BASE + 0x1000), a, ValueType::U8, false)
                            } else {
                                // Reference pixel: annotated approximate.
                                let rx = (cx as i32 + dx).clamp(0, self.width as i32 - 1) as u64;
                                let ry = (cy as i32 + dy).clamp(0, self.height as i32 - 1) as u64;
                                (
                                    pc,
                                    prev.offset(ry * self.width as u64 + rx),
                                    ValueType::U8,
                                    true,
                                )
                            }
                        });
                        let vals = h.load_batch_n(&reqs);
                        let sad: u32 = vals
                            .chunks_exact(2)
                            .map(|cr| u32::from(cr[0].as_u8().abs_diff(cr[1].as_u8())))
                            .sum();
                        h.tick(TICKS_PER_SAD_SAMPLE * SAMPLES as u32 + TICKS_PER_POSITION);
                        if sad < best.0 {
                            best = (sad, dx, dy);
                        }
                    }
                }

                // Motion-compensate with the chosen vector and account the
                // residual precisely (the encoder transmits real residuals).
                let (_, dx, dy) = best;
                mv_bits += 2.0 + f64::from(dx.abs() + dy.abs());
                for sy in 0..BLOCK {
                    for sx in 0..BLOCK {
                        let cx = bx + sx;
                        let cy = by + sy;
                        let rx = (cx as i32 + dx).clamp(0, self.width as i32 - 1) as usize;
                        let ry = (cy as i32 + dy).clamp(0, self.height as i32 - 1) as usize;
                        let c = f64::from(self.cur[cy * self.width + cx]);
                        let r = f64::from(self.prev[ry * self.width + rx]);
                        let e = c - r;
                        sq_err_sum += e * e;
                        residual_bits += (1.0 + e.abs()).log2();
                    }
                }
                h.tick(64);
            }
        }

        let n = (nblocks * BLOCK * BLOCK) as f64;
        let mse = (sq_err_sum / n).max(1e-9);
        EncodeResult {
            psnr_db: 10.0 * (255.0 * 255.0 / mse).log10(),
            bitrate_bits: mv_bits + residual_bits,
        }
    }

    /// PSNR and bit-rate comparison, weighted equally (§IV).
    fn output_error(&self, precise: &EncodeResult, approx: &EncodeResult) -> f64 {
        0.5 * relative_error(approx.psnr_db, precise.psnr_db)
            + 0.5 * relative_error(approx.bitrate_bits, precise.bitrate_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use lva_sim::SimConfig;

    #[test]
    fn motion_search_finds_the_global_pan() {
        // With a (+2, +1) pan, motion compensation should beat the
        // zero-motion baseline substantially.
        let wl = X264::with_seed(WorkloadScale::Test, 0);
        let mut h = lva_sim::SimHarness::new(SimConfig::precise());
        let res = wl.run(&mut h);
        assert!(res.psnr_db > 30.0, "PSNR {}", res.psnr_db);
    }

    #[test]
    fn most_static_pcs_of_the_suite() {
        let wl = X264::with_seed(WorkloadScale::Test, 0);
        let run = wl.execute(&SimConfig::precise());
        let expected = (2 * wl.search + 1).pow(2) as usize;
        assert_eq!(run.stats.static_approx_pcs(), expected);
    }

    #[test]
    fn lva_barely_moves_the_output() {
        // §VI-B: pixels have a finite range; averaging cannot leave it, so
        // x264 sees big MPKI cuts at near-zero error.
        let wl = X264::with_seed(WorkloadScale::Test, 0);
        let run = wl.execute(&SimConfig::baseline_lva());
        assert!(run.normalized_mpki() < 1.0);
        assert!(run.output_error < 0.05, "error {}", run.output_error);
    }

    #[test]
    fn error_metric_weights_psnr_and_bitrate() {
        let wl = X264::with_seed(WorkloadScale::Test, 0);
        let p = EncodeResult {
            psnr_db: 40.0,
            bitrate_bits: 1000.0,
        };
        let a = EncodeResult {
            psnr_db: 36.0,
            bitrate_bits: 1100.0,
        };
        let e = wl.output_error(&p, &a);
        assert!((e - 0.5 * (0.1 + 0.1)).abs() < 1e-12);
    }
}
