//! # lva-energy — dynamic-energy model and EDP accounting
//!
//! The paper measures dynamic energy of the caches, main memory and
//! approximator tables with CACTI 5.1 at 32 nm (§V-B) and reports energy
//! savings (Fig. 10b) and the energy-delay product of L1 misses (Fig. 11).
//!
//! CACTI itself is a large analytical tool; what the paper's results depend
//! on is only the *ratio* between per-access energies at the different
//! levels of the hierarchy. We substitute a constant per-access-energy
//! table with CACTI-like 32 nm ratios (documented on
//! [`EnergyParams::cacti_32nm`]); the absolute joule numbers are not
//! compared against the paper, the relative savings are.
//!
//! ## Example
//!
//! ```
//! use lva_energy::{EnergyEvents, EnergyParams};
//!
//! let params = EnergyParams::cacti_32nm();
//! let precise = EnergyEvents { l2_accesses: 1000, dram_accesses: 100, ..Default::default() };
//! let lva = EnergyEvents { l2_accesses: 600, dram_accesses: 88, ..Default::default() };
//! let savings = 1.0 - params.total_nj(&lva) / params.total_nj(&precise);
//! assert!(savings > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

/// Per-access dynamic energies in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// One L1 access (16 KB, 8-way).
    pub l1_access_nj: f64,
    /// One L2 bank access (128 KB, 16-way).
    pub l2_access_nj: f64,
    /// One main-memory (DRAM) access for a 64 B block.
    pub dram_access_nj: f64,
    /// One flit crossing one NoC link (router + link energy).
    pub noc_flit_hop_nj: f64,
    /// One flit-hop on the heterogeneous low-power plane (§VI-C): slower,
    /// lower-voltage links cost a fraction of the fast plane's energy.
    pub noc_low_power_flit_hop_nj: f64,
    /// One approximator-table access (generate or train). The paper folds
    /// this overhead into its energy results (§V-B); so do we.
    pub approximator_access_nj: f64,
}

impl EnergyParams {
    /// CACTI-5.1-flavoured per-access energies at 32 nm.
    ///
    /// Provenance: CACTI 5.1 reports roughly 0.03–0.07 nJ per access for a
    /// 16 KB 8-way SRAM, 0.2–0.4 nJ for a 128 KB 16-way SRAM, and tens of
    /// nJ per DRAM block transfer at this node; per-hop flit energies in
    /// 32 nm mesh NoCs are ~5–15 pJ (Table II technology node). A 512-entry
    /// ~18 KB approximator table is read narrowly (one ~40 B entry, no
    /// 64 B line transfer), so it costs well under an L1 access.
    #[must_use]
    pub fn cacti_32nm() -> Self {
        EnergyParams {
            l1_access_nj: 0.05,
            l2_access_nj: 0.30,
            dram_access_nj: 15.0,
            noc_flit_hop_nj: 0.01,
            noc_low_power_flit_hop_nj: 0.004,
            approximator_access_nj: 0.02,
        }
    }

    /// Total dynamic energy for a set of events, in nanojoules.
    #[must_use]
    pub fn total_nj(&self, ev: &EnergyEvents) -> f64 {
        self.breakdown(ev).total_nj()
    }

    /// Per-component energy for a set of events.
    #[must_use]
    pub fn breakdown(&self, ev: &EnergyEvents) -> EnergyBreakdown {
        EnergyBreakdown {
            l1_nj: ev.l1_accesses as f64 * self.l1_access_nj,
            l2_nj: ev.l2_accesses as f64 * self.l2_access_nj,
            dram_nj: ev.dram_accesses as f64 * self.dram_access_nj,
            noc_nj: ev.noc_flit_hops as f64 * self.noc_flit_hop_nj
                + ev.noc_low_power_flit_hops as f64 * self.noc_low_power_flit_hop_nj,
            approximator_nj: ev.approximator_accesses as f64 * self.approximator_access_nj,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::cacti_32nm()
    }
}

/// Countable events that consume dynamic energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyEvents {
    /// L1 cache accesses (hits, fills and probes).
    pub l1_accesses: u64,
    /// L2 bank accesses.
    pub l2_accesses: u64,
    /// DRAM block accesses.
    pub dram_accesses: u64,
    /// NoC flit-hops on the fast plane.
    pub noc_flit_hops: u64,
    /// NoC flit-hops on the low-power plane.
    pub noc_low_power_flit_hops: u64,
    /// Approximator-table reads and writes.
    pub approximator_accesses: u64,
}

/// Energy split by component, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// L1 energy.
    pub l1_nj: f64,
    /// L2 energy.
    pub l2_nj: f64,
    /// DRAM energy.
    pub dram_nj: f64,
    /// NoC energy.
    pub noc_nj: f64,
    /// Approximator-table energy (the mechanism's overhead).
    pub approximator_nj: f64,
}

impl EnergyBreakdown {
    /// Sum over all components.
    #[must_use]
    pub fn total_nj(&self) -> f64 {
        self.l1_nj + self.l2_nj + self.dram_nj + self.noc_nj + self.approximator_nj
    }

    /// Energy spent beyond the L1 — the "memory hierarchy" energy the
    /// paper's savings numbers (Fig. 10b) refer to.
    #[must_use]
    pub fn hierarchy_nj(&self) -> f64 {
        self.l2_nj + self.dram_nj + self.noc_nj + self.approximator_nj
    }
}

/// Energy-delay product of L1 misses (Fig. 11): the product of the average
/// energy spent per L1 miss and the average L1 miss latency. The paper
/// normalizes this to precise execution, so units cancel.
#[must_use]
pub fn l1_miss_edp(energy_per_miss_nj: f64, avg_miss_latency_cycles: f64) -> f64 {
    energy_per_miss_nj * avg_miss_latency_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_dominates_sram() {
        let p = EnergyParams::cacti_32nm();
        assert!(p.dram_access_nj > 10.0 * p.l2_access_nj);
        assert!(p.l2_access_nj > p.l1_access_nj);
        assert!(p.approximator_access_nj <= p.l1_access_nj);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = EnergyParams::cacti_32nm();
        let ev = EnergyEvents {
            l1_accesses: 10,
            l2_accesses: 5,
            dram_accesses: 2,
            noc_flit_hops: 100,
            noc_low_power_flit_hops: 50,
            approximator_accesses: 7,
        };
        let b = p.breakdown(&ev);
        assert!((b.total_nj() - p.total_nj(&ev)).abs() < 1e-12);
        assert!((b.total_nj() - (b.l1_nj + b.hierarchy_nj())).abs() < 1e-12);
    }

    #[test]
    fn fewer_fetches_means_less_energy() {
        let p = EnergyParams::cacti_32nm();
        let precise = EnergyEvents {
            l2_accesses: 1000,
            dram_accesses: 100,
            noc_flit_hops: 6000,
            ..Default::default()
        };
        // Degree-16 LVA: far fewer fetches, some approximator overhead.
        let lva = EnergyEvents {
            l2_accesses: 600,
            dram_accesses: 88,
            noc_flit_hops: 3800,
            approximator_accesses: 1000,
            ..Default::default()
        };
        assert!(p.total_nj(&lva) < p.total_nj(&precise));
    }

    #[test]
    fn low_power_hops_cost_less() {
        let p = EnergyParams::cacti_32nm();
        assert!(p.noc_low_power_flit_hop_nj < p.noc_flit_hop_nj);
        let fast = EnergyEvents {
            noc_flit_hops: 100,
            ..Default::default()
        };
        let slow = EnergyEvents {
            noc_low_power_flit_hops: 100,
            ..Default::default()
        };
        assert!(p.total_nj(&slow) < p.total_nj(&fast));
    }

    #[test]
    fn edp_is_multiplicative() {
        assert_eq!(l1_miss_edp(2.0, 10.0), 20.0);
        assert_eq!(l1_miss_edp(0.0, 10.0), 0.0);
    }
}
