//! fluidanimate — smoothed-particle-hydrodynamics fluid simulation.
//!
//! §IV: particles model the fluid; densities and forces are computed from
//! neighbouring particles' state, partitioned into cells so only the
//! current and adjacent cells are examined. We annotate the particle data
//! (positions and densities) read inside the density and acceleration
//! loops. Physics-based animation tolerates imprecision; the output error
//! is the percentage of particles that end in a different cell than in the
//! precise execution.

use crate::util::{interleaved_chunks, seeded_rng};
use crate::{Kernel, WorkloadScale};
use lva_core::{Pc, Value, ValueType};
use lva_sim::{LoadReq, SimHarness};

const PC_BASE: u64 = 0x7000;
const PC_NBR_X: Pc = Pc(PC_BASE);
const PC_NBR_Y: Pc = Pc(PC_BASE + 4);
const PC_NBR_Z: Pc = Pc(PC_BASE + 8);
const PC_NBR_DENS: Pc = Pc(PC_BASE + 12);
const PC_SELF_X: Pc = Pc(PC_BASE + 16);
const PC_SELF_Y: Pc = Pc(PC_BASE + 20);
const PC_SELF_Z: Pc = Pc(PC_BASE + 24);
const PC_STORE: Pc = Pc(PC_BASE + 28);

const TICKS_PER_NEIGHBOUR: u32 = 14;
const TICKS_PER_PARTICLE: u32 = 24;

/// Smoothing radius; also the cell edge length.
const H: f32 = 0.05;
/// Simulation domain edge (cube).
const DOMAIN: f32 = 1.0;

/// The fluidanimate kernel.
#[derive(Debug, Clone)]
pub struct Fluidanimate {
    particles: usize,
    steps: usize,
    init: Vec<[f32; 3]>,
}

impl Fluidanimate {
    /// Builds the deterministic initial particle cloud (a dam-break blob).
    #[must_use]
    pub fn new(scale: WorkloadScale) -> Self {
        Self::with_seed(scale, 0)
    }

    /// Like [`new`](Self::new), but perturbing the input generation with
    /// `seed` — the paper averages every measurement over 5 simulation
    /// runs, which [`crate::registry_seeded`] reproduces.
    #[must_use]
    pub fn with_seed(scale: WorkloadScale, seed: u64) -> Self {
        let (particles, steps) = match scale {
            WorkloadScale::Test => (1_500, 3),
            WorkloadScale::Small => (9_000, 4),
            WorkloadScale::Medium => (20_000, 7),
        };
        let mut rng = seeded_rng(0xF1 ^ seed, 0);
        let init = (0..particles)
            .map(|_| {
                [
                    rng.gen_range(0.0..DOMAIN * 0.5),
                    rng.gen_range(0.3..DOMAIN),
                    rng.gen_range(0.0..DOMAIN),
                ]
            })
            .collect();
        Fluidanimate {
            particles,
            steps,
            init,
        }
    }

    /// Cells per axis.
    fn cells_per_axis() -> i32 {
        (DOMAIN / H) as i32
    }

    /// Cell id of a position.
    #[must_use]
    pub(crate) fn cell_of(x: f32, y: f32, z: f32) -> i32 {
        let n = Self::cells_per_axis();
        let cx = ((x / H) as i32).clamp(0, n - 1);
        let cy = ((y / H) as i32).clamp(0, n - 1);
        let cz = ((z / H) as i32).clamp(0, n - 1);
        (cz * n + cy) * n + cx
    }
}

/// One step's neighbour list, reused from particle to particle.
///
/// The list of a cell is the ids of every particle in it and in the
/// adjacent cells, cell by cell in z, y, x order. `cells` does not change
/// during a step, so the list depends on the cell id alone: refilling it
/// only when the cell changes hands every particle the same ids in the
/// same order as building it afresh, and the kernel issues the same
/// loads. Particles are in cell-major order, so a pass refills it about
/// once per occupied cell rather than once per particle.
#[derive(Default)]
struct Neighbours {
    cell: Option<usize>,
    ids: Vec<u32>,
}

impl Neighbours {
    /// The particle ids around `cell`, rebuilt from `cells` only when
    /// `cell` differs from the previous call's.
    fn of(&mut self, cell: usize, cells: &[Vec<u32>]) -> &[u32] {
        if self.cell != Some(cell) {
            self.cell = Some(cell);
            self.ids.clear();
            let nax = Fluidanimate::cells_per_axis();
            let c = cell as i32;
            let (cx, cy, cz) = (c % nax, (c / nax) % nax, c / (nax * nax));
            for dz in -1..=1 {
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let (nx2, ny2, nz2) = (cx + dx, cy + dy, cz + dz);
                        if (0..nax).contains(&nx2)
                            && (0..nax).contains(&ny2)
                            && (0..nax).contains(&nz2)
                        {
                            let id = ((nz2 * nax + ny2) * nax + nx2) as usize;
                            self.ids.extend(cells[id].iter().copied());
                        }
                    }
                }
            }
        }
        &self.ids
    }
}

impl Kernel for Fluidanimate {
    /// Final cell id of each particle.
    type Output = Vec<i32>;

    fn name(&self) -> &'static str {
        "fluidanimate"
    }

    fn run(&self, h: &mut SimHarness) -> Vec<i32> {
        let n = self.particles as u64;
        let xs = h.alloc(4 * n, 64);
        let ys = h.alloc(4 * n, 64);
        let zs = h.alloc(4 * n, 64);
        let dens = h.alloc(4 * n, 64);
        let m = h.memory_mut();
        m.write_f32_slice(xs, &self.init.iter().map(|p| p[0]).collect::<Vec<_>>());
        m.write_f32_slice(ys, &self.init.iter().map(|p| p[1]).collect::<Vec<_>>());
        m.write_f32_slice(zs, &self.init.iter().map(|p| p[2]).collect::<Vec<_>>());
        // Host-side velocities (precise state, not annotated).
        let mut vx = vec![0.0f32; self.particles];
        let mut vy = vec![0.0f32; self.particles];
        let mut vz = vec![0.0f32; self.particles];

        let ncells = (Self::cells_per_axis() as usize).pow(3);
        let dt = 0.03f32;

        for _ in 0..self.steps {
            // Repartition: sort particles into cell-major order and
            // physically reorder the arrays, as the real benchmark does
            // when it moves particles between cells. The reorganization
            // itself is precise bookkeeping code (not annotated), so the
            // rewrite goes straight to memory; what matters is that
            // neighbour loads afterwards touch contiguous blocks.
            let read3 = |h: &SimHarness, i: usize| {
                (
                    h.memory().read_f32(xs.offset(4 * i as u64)),
                    h.memory().read_f32(ys.offset(4 * i as u64)),
                    h.memory().read_f32(zs.offset(4 * i as u64)),
                )
            };
            let mut order: Vec<usize> = (0..self.particles).collect();
            order.sort_by_key(|&i| {
                let (x, y, z) = read3(h, i);
                Self::cell_of(x, y, z)
            });
            let snapshot: Vec<(f32, f32, f32, f32)> = (0..self.particles)
                .map(|i| {
                    let (x, y, z) = read3(h, i);
                    (x, y, z, h.memory().read_f32(dens.offset(4 * i as u64)))
                })
                .collect();
            let (old_vx, old_vy, old_vz) = (vx.clone(), vy.clone(), vz.clone());
            for (new_i, &old_i) in order.iter().enumerate() {
                let (x, y, z, d) = snapshot[old_i];
                let m = h.memory_mut();
                m.write_f32(xs.offset(4 * new_i as u64), x);
                m.write_f32(ys.offset(4 * new_i as u64), y);
                m.write_f32(zs.offset(4 * new_i as u64), z);
                m.write_f32(dens.offset(4 * new_i as u64), d);
                vx[new_i] = old_vx[old_i];
                vy[new_i] = old_vy[old_i];
                vz[new_i] = old_vz[old_i];
            }
            let mut cells: Vec<Vec<u32>> = vec![Vec::new(); ncells];
            for i in 0..self.particles {
                let (x, y, z) = read3(h, i);
                cells[Self::cell_of(x, y, z) as usize].push(i as u32);
            }
            // One neighbour list serves both passes: `cells` is fixed
            // until the next step, so a list built for a cell stays exact
            // (see `Neighbours`).
            let mut neighbours = Neighbours::default();

            // Pass 1: densities from neighbour positions (annotated loads).
            let mut reqs: Vec<LoadReq> = Vec::new();
            let mut vals: Vec<Value> = Vec::new();
            for (thread, range) in interleaved_chunks(self.particles, 128) {
                h.set_thread(thread);
                for i in range {
                    let [sx, sy, sz] = h.load_batch_n(&[
                        (PC_SELF_X, xs.offset(4 * i as u64), ValueType::F32, false),
                        (PC_SELF_Y, ys.offset(4 * i as u64), ValueType::F32, false),
                        (PC_SELF_Z, zs.offset(4 * i as u64), ValueType::F32, false),
                    ]);
                    let (sx, sy, sz) = (sx.as_f32(), sy.as_f32(), sz.as_f32());
                    // One batch over the neighbour positions; the per-
                    // neighbour arithmetic ticks are accounted after it.
                    reqs.clear();
                    for &nb in neighbours.of(Self::cell_of(sx, sy, sz) as usize, &cells) {
                        let j = u64::from(nb);
                        reqs.push((PC_NBR_X, xs.offset(4 * j), ValueType::F32, true));
                        reqs.push((PC_NBR_Y, ys.offset(4 * j), ValueType::F32, true));
                        reqs.push((PC_NBR_Z, zs.offset(4 * j), ValueType::F32, true));
                    }
                    vals.clear();
                    vals.resize(reqs.len(), Value::from_bits(0, ValueType::U8));
                    h.load_batch(&reqs, &mut vals);
                    // Standard SPH self-contribution (q = 1 at d = 0).
                    let mut rho = 1.0f32;
                    for nbr in vals.chunks_exact(3) {
                        let (nx, ny, nz) = (nbr[0].as_f32(), nbr[1].as_f32(), nbr[2].as_f32());
                        let d2 = (sx - nx).powi(2) + (sy - ny).powi(2) + (sz - nz).powi(2);
                        if d2 < H * H {
                            let q = 1.0 - d2 / (H * H);
                            rho += q * q * q;
                        }
                    }
                    h.tick(TICKS_PER_NEIGHBOUR * (vals.len() / 3) as u32);
                    h.store_f32(PC_STORE, dens.offset(4 * i as u64), rho.max(1e-3));
                    h.tick(TICKS_PER_PARTICLE);
                }
            }

            // Pass 2: pressure forces from neighbour densities, integrate.
            for (thread, range) in interleaved_chunks(self.particles, 128) {
                h.set_thread(thread);
                for i in range {
                    let [sx, sy, sz] = h.load_batch_n(&[
                        (PC_SELF_X, xs.offset(4 * i as u64), ValueType::F32, false),
                        (PC_SELF_Y, ys.offset(4 * i as u64), ValueType::F32, false),
                        (PC_SELF_Z, zs.offset(4 * i as u64), ValueType::F32, false),
                    ]);
                    let (sx, sy, sz) = (sx.as_f32(), sy.as_f32(), sz.as_f32());
                    let (mut fx, mut fy, mut fz) = (0.0f32, -9.8f32, 0.0f32);
                    let rest = 1.5f32;
                    reqs.clear();
                    for &nb in neighbours.of(Self::cell_of(sx, sy, sz) as usize, &cells) {
                        if nb as usize == i {
                            continue;
                        }
                        let j = u64::from(nb);
                        reqs.push((PC_NBR_X, xs.offset(4 * j), ValueType::F32, true));
                        reqs.push((PC_NBR_Y, ys.offset(4 * j), ValueType::F32, true));
                        reqs.push((PC_NBR_Z, zs.offset(4 * j), ValueType::F32, true));
                        reqs.push((PC_NBR_DENS, dens.offset(4 * j), ValueType::F32, true));
                    }
                    vals.clear();
                    vals.resize(reqs.len(), Value::from_bits(0, ValueType::U8));
                    h.load_batch(&reqs, &mut vals);
                    for nbr in vals.chunks_exact(4) {
                        let (nx, ny, nz) = (nbr[0].as_f32(), nbr[1].as_f32(), nbr[2].as_f32());
                        let nrho = nbr[3].as_f32();
                        let dx = sx - nx;
                        let dy2 = sy - ny;
                        let dz = sz - nz;
                        let d2 = dx * dx + dy2 * dy2 + dz * dz;
                        if d2 < H * H && d2 > 1e-12 {
                            let d = d2.sqrt();
                            // Repulsion scaled by neighbour over-density.
                            // The denominator is a precise constant (the
                            // paper forbids approximating denominators).
                            let press = (nrho - rest).max(0.0) * (H - d) / (rest * d);
                            fx += press * dx * 20.0;
                            fy += press * dy2 * 20.0;
                            fz += press * dz * 20.0;
                        }
                    }
                    h.tick(TICKS_PER_NEIGHBOUR * (vals.len() / 4) as u32);
                    vx[i] = (vx[i] + fx * dt).clamp(-2.0, 2.0);
                    vy[i] = (vy[i] + fy * dt).clamp(-2.0, 2.0);
                    vz[i] = (vz[i] + fz * dt).clamp(-2.0, 2.0);
                    let nx2 = (sx + vx[i] * dt).clamp(0.0, DOMAIN - 1e-3);
                    let ny2 = (sy + vy[i] * dt).clamp(0.0, DOMAIN - 1e-3);
                    let nz2 = (sz + vz[i] * dt).clamp(0.0, DOMAIN - 1e-3);
                    if nx2 <= 0.0 || nx2 >= DOMAIN - 1e-3 {
                        vx[i] *= -0.5;
                    }
                    if ny2 <= 0.0 || ny2 >= DOMAIN - 1e-3 {
                        vy[i] *= -0.5;
                    }
                    if nz2 <= 0.0 || nz2 >= DOMAIN - 1e-3 {
                        vz[i] *= -0.5;
                    }
                    h.store_f32(PC_STORE, xs.offset(4 * i as u64), nx2);
                    h.store_f32(PC_STORE, ys.offset(4 * i as u64), ny2);
                    h.store_f32(PC_STORE, zs.offset(4 * i as u64), nz2);
                    h.tick(TICKS_PER_PARTICLE);
                }
            }
        }

        (0..self.particles)
            .map(|i| {
                let x = h.memory().read_f32(xs.offset(4 * i as u64));
                let y = h.memory().read_f32(ys.offset(4 * i as u64));
                let z = h.memory().read_f32(zs.offset(4 * i as u64));
                Self::cell_of(x, y, z)
            })
            .collect()
    }

    /// Percentage of particles that end in a different cell (§IV).
    fn output_error(&self, precise: &Vec<i32>, approx: &Vec<i32>) -> f64 {
        assert_eq!(precise.len(), approx.len(), "particle count changed");
        if precise.is_empty() {
            return 0.0;
        }
        let moved = precise.iter().zip(approx).filter(|(p, a)| p != a).count();
        moved as f64 / precise.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use lva_sim::SimConfig;

    #[test]
    fn particles_stay_in_the_domain() {
        let wl = Fluidanimate::new(WorkloadScale::Test);
        let mut h = lva_sim::SimHarness::new(SimConfig::precise());
        let cells = wl.run(&mut h);
        let max_cell = Fluidanimate::cells_per_axis().pow(3);
        for c in cells {
            assert!((0..max_cell).contains(&c), "cell {c}");
        }
    }

    #[test]
    fn gravity_pulls_the_blob_down() {
        let wl = Fluidanimate::new(WorkloadScale::Test);
        let mut h = lva_sim::SimHarness::new(SimConfig::precise());
        let cells = wl.run(&mut h);
        // Mean final y-cell must be below the initial blob's (which started
        // at y in [0.3, 1.0]).
        let nax = Fluidanimate::cells_per_axis();
        let mean_y: f64 = cells
            .iter()
            .map(|&c| f64::from((c / nax) % nax))
            .sum::<f64>()
            / cells.len() as f64;
        let init_mean_y: f64 = wl
            .init
            .iter()
            .map(|p| f64::from((p[1] / H) as i32))
            .sum::<f64>()
            / wl.init.len() as f64;
        assert!(mean_y < init_mean_y, "{mean_y} !< {init_mean_y}");
    }

    #[test]
    fn cell_of_is_consistent() {
        assert_eq!(Fluidanimate::cell_of(0.0, 0.0, 0.0), 0);
        let n = Fluidanimate::cells_per_axis();
        assert_eq!(
            Fluidanimate::cell_of(DOMAIN, DOMAIN, DOMAIN),
            (n * n * n) - 1
        );
    }

    #[test]
    fn lva_error_within_paper_range() {
        // §VII-B: fluidanimate tolerates imprecision in force and density
        // calculations with ~10% error.
        let wl = Fluidanimate::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::baseline_lva());
        assert!(run.output_error < 0.35, "error {}", run.output_error);
    }

    #[test]
    fn four_neighbour_pcs_are_annotated() {
        let wl = Fluidanimate::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::precise());
        assert_eq!(run.stats.static_approx_pcs(), 4);
    }
}
