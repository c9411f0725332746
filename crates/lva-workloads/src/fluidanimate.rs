//! fluidanimate — smoothed-particle-hydrodynamics fluid simulation.
//!
//! §IV: particles model the fluid; densities and forces are computed from
//! neighbouring particles' state, partitioned into cells so only the
//! current and adjacent cells are examined. We annotate the particle data
//! (positions and densities) read inside the density and acceleration
//! loops. Physics-based animation tolerates imprecision; the output error
//! is the percentage of particles that end in a different cell than in the
//! precise execution.
//!
//! Each step first repartitions the particles with a stable counting sort
//! by cell (`CellIndex`). That is host-side bookkeeping and is not
//! simulated; it reorders the arrays in memory directly. Afterwards a
//! cell's particles are one contiguous range of slots, so the 27 cells
//! around a particle are nine ranges, one per (dz, dy) row of up to three
//! cells along x. Both passes issue their annotated neighbour loads
//! straight from those ranges, cell by cell in z, y, x order.

use crate::util::{interleaved_chunks, seeded_rng};
use crate::{Kernel, WorkloadScale};
use lva_core::{Pc, Value, ValueType};
use lva_sim::{LoadReq, SimHarness};
use std::ops::Range;

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
/// Cells per axis.
const NAX: usize = (DOMAIN / H) as usize;

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

    /// Cell id of a position.
    #[must_use]
    pub(crate) fn cell_of(x: f32, y: f32, z: f32) -> i32 {
        let n = NAX as i32;
        let cx = ((x / H) as i32).clamp(0, n - 1);
        let cy = ((y / H) as i32).clamp(0, n - 1);
        let cz = ((z / H) as i32).clamp(0, n - 1);
        (cz * n + cy) * n + cx
    }
}

/// The cell-major index of one step: a stable counting sort of the
/// particles by cell, its buffers reused from step to step.
///
/// `order[k]` is the particle that moves to slot `k`. After the move,
/// cell `c` holds exactly the slots `start[c]..start[c + 1]`, in
/// ascending order, so a row of adjacent cells along x is one contiguous
/// range of slots.
#[derive(Default)]
struct CellIndex {
    start: Vec<u32>,
    order: Vec<u32>,
}

impl CellIndex {
    /// Sorts the particles `0..cells.len()`, particle `i` lying in cell
    /// `cells[i]`.
    fn sort(&mut self, cells: &[u32]) {
        self.start.clear();
        self.start.resize(NAX.pow(3) + 1, 0);
        for &c in cells {
            self.start[c as usize + 1] += 1;
        }
        for c in 1..self.start.len() {
            self.start[c] += self.start[c - 1];
        }
        // Placing each particle at its cell's cursor leaves `start[c]` at
        // the cell's end, which is where cell `c + 1` starts.
        self.order.resize(cells.len(), 0);
        for (i, &c) in cells.iter().enumerate() {
            let cursor = &mut self.start[c as usize];
            self.order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        self.start.rotate_right(1);
        self.start[0] = 0;
    }

    /// The slots around `cell`, one range per (dz, dy) row in z, y order:
    /// the up to three adjacent cells along x, or an empty range for a row
    /// outside the domain. Concatenated, they are the particles of the 27
    /// cells around `cell` in z, y, x order.
    fn rows(&self, cell: usize) -> [Range<usize>; 9] {
        let (cx, cy, cz) = (cell % NAX, cell / NAX % NAX, cell / (NAX * NAX));
        let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(NAX - 1));
        std::array::from_fn(|k| {
            // Row k lies at z = cz + k / 3 - 1, y = cy + k % 3 - 1.
            match ((cz + k / 3).checked_sub(1), (cy + k % 3).checked_sub(1)) {
                (Some(z), Some(y)) if z < NAX && y < NAX => {
                    let row = (z * NAX + y) * NAX;
                    self.start[row + x0] as usize..self.start[row + x1 + 1] as usize
                }
                _ => 0..0,
            }
        })
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

        let dt = 0.03f32;
        // The cell of particle `i`, from its position in memory.
        let cell_at = |h: &SimHarness, i: u64| {
            let m = h.memory();
            let (x, y, z) = (xs.offset(4 * i), ys.offset(4 * i), zs.offset(4 * i));
            Self::cell_of(m.read_f32(x), m.read_f32(y), m.read_f32(z))
        };
        let mut cells: Vec<u32> = Vec::with_capacity(self.particles);
        let mut index = CellIndex::default();
        let mut reqs: Vec<LoadReq> = Vec::new();
        let mut vals: Vec<Value> = Vec::new();

        for _ in 0..self.steps {
            // Repartition: sort particles into cell-major order and
            // physically reorder the arrays, as the real benchmark does
            // when it moves particles between cells. The reorganization
            // itself is precise bookkeeping code (not annotated), so the
            // rewrite goes straight to memory; what matters is that
            // neighbour loads afterwards touch contiguous blocks. The same
            // index then hands both passes each particle's neighbours as
            // nine contiguous ranges (see `CellIndex::rows`).
            cells.clear();
            cells.extend((0..n).map(|i| cell_at(h, i) as u32));
            index.sort(&cells);
            let m = h.memory_mut();
            for base in [xs, ys, zs, dens] {
                let moved: Vec<f32> = index
                    .order
                    .iter()
                    .map(|&i| m.read_f32(base.offset(4 * u64::from(i))))
                    .collect();
                m.write_f32_slice(base, &moved);
            }
            for v in [&mut vx, &mut vy, &mut vz] {
                *v = index.order.iter().map(|&i| v[i as usize]).collect();
            }

            // Pass 1: densities from neighbour positions (annotated loads).
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
                    for slots in index.rows(Self::cell_of(sx, sy, sz) as usize) {
                        for j in slots {
                            let j = j as u64;
                            reqs.push((PC_NBR_X, xs.offset(4 * j), ValueType::F32, true));
                            reqs.push((PC_NBR_Y, ys.offset(4 * j), ValueType::F32, true));
                            reqs.push((PC_NBR_Z, zs.offset(4 * j), ValueType::F32, true));
                        }
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
                    for slots in index.rows(Self::cell_of(sx, sy, sz) as usize) {
                        for j in slots.filter(|&j| j != i) {
                            let j = j as u64;
                            reqs.push((PC_NBR_X, xs.offset(4 * j), ValueType::F32, true));
                            reqs.push((PC_NBR_Y, ys.offset(4 * j), ValueType::F32, true));
                            reqs.push((PC_NBR_Z, zs.offset(4 * j), ValueType::F32, true));
                            reqs.push((PC_NBR_DENS, dens.offset(4 * j), ValueType::F32, true));
                        }
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

        (0..n).map(|i| cell_at(h, i)).collect()
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
        let max_cell = NAX.pow(3) as i32;
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
        let nax = NAX as i32;
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
        let n = NAX as i32;
        assert_eq!(
            Fluidanimate::cell_of(DOMAIN, DOMAIN, DOMAIN),
            (n * n * n) - 1
        );
    }

    /// The cells of a seeded cloud in shuffled order: a particle on every
    /// corner and every face, `crowd` in one random cell and `crowd` in
    /// the edge cell at x = z = max, y = 0, and 200 spread thinly (most
    /// cells stay empty), some of them outside the domain.
    fn cloud(seed: u64, crowd: usize) -> Vec<u32> {
        let mut rng = seeded_rng(seed, 1);
        let edge = [0.0, DOMAIN];
        let mut pts: Vec<[f32; 3]> = Vec::new();
        for &x in &edge {
            for &y in &edge {
                for &z in &edge {
                    pts.push([x, y, z]);
                }
            }
        }
        for axis in 0..3 {
            for &e in &edge {
                let mut p = [0.0; 3].map(|_: f32| rng.gen_range(0.0..DOMAIN));
                p[axis] = e;
                pts.push(p);
            }
        }
        let busy = [0.0; 3].map(|_: f32| rng.gen_range(0.0..DOMAIN - H));
        for _ in 0..crowd {
            pts.push(busy.map(|c| c + rng.gen_range(0.0..H)));
            pts.push([DOMAIN - rng.gen_range(0.0..H / 2.0), 0.0, DOMAIN]);
        }
        for _ in 0..200 {
            pts.push([0.0; 3].map(|_: f32| rng.gen_range(-0.1..DOMAIN + 0.1)));
        }
        for i in (1..pts.len()).rev() {
            pts.swap(i, rng.gen_range(0..=i));
        }
        pts.iter()
            .map(|&[x, y, z]| Fluidanimate::cell_of(x, y, z) as u32)
            .collect()
    }

    /// The reference for [`CellIndex::rows`]: the slots of the 27 cells
    /// around `cell`, read cell by cell in z, y, x order from per-cell
    /// lists.
    fn scan(lists: &[Vec<usize>], cell: usize) -> Vec<usize> {
        let nax = NAX as i32;
        let c = cell as i32;
        let (cx, cy, cz) = (c % nax, (c / nax) % nax, c / (nax * nax));
        let mut ids = Vec::new();
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let (x, y, z) = (cx + dx, cy + dy, cz + dz);
                    if [x, y, z].iter().all(|v| (0..nax).contains(v)) {
                        ids.extend(&lists[((z * nax + y) * nax + x) as usize]);
                    }
                }
            }
        }
        ids
    }

    #[test]
    fn cell_ranges_match_a_brute_force_scan() {
        for (seed, crowd) in [(0, 0), (1, 1), (2, 30), (3, 300)] {
            let cells = cloud(seed, crowd);
            let mut index = CellIndex::default();
            index.sort(&cells);
            let mut stable: Vec<u32> = (0..cells.len() as u32).collect();
            stable.sort_by_key(|&i| cells[i as usize]);
            assert_eq!(index.order, stable, "seed {seed}: not a stable sort");

            let mut lists = vec![Vec::new(); NAX.pow(3)];
            for (slot, &i) in index.order.iter().enumerate() {
                lists[cells[i as usize] as usize].push(slot);
            }
            for (cell, list) in lists.iter().enumerate() {
                let own = index.start[cell] as usize..index.start[cell + 1] as usize;
                assert_eq!(own.collect::<Vec<_>>(), *list, "seed {seed}, cell {cell}");
                let rows: Vec<usize> = index.rows(cell).into_iter().flatten().collect();
                assert_eq!(rows, scan(&lists, cell), "seed {seed}, cell {cell}");
            }
        }
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
