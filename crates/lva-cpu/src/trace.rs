//! Per-thread instruction traces recorded by the phase-1 harness and
//! replayed by the phase-2 full-system simulator.

use lva_core::{Addr, Pc, Value, ValueType};

/// One trace record. `Compute(n)` stands for `n` non-memory instructions —
/// the harness coalesces them so traces stay compact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOp {
    /// `n` back-to-back non-memory instructions (ALU/FP/branches).
    Compute(u32),
    /// A load instruction.
    Load {
        /// Static PC of the load site.
        pc: Pc,
        /// Effective address.
        addr: Addr,
        /// Machine type of the loaded datum.
        ty: ValueType,
        /// Whether the load is annotated as approximate (§IV).
        approx: bool,
        /// The precise value observed at record time — the training input
        /// for the approximator during replay.
        value: Value,
    },
    /// A store instruction.
    Store {
        /// Static PC of the store site.
        pc: Pc,
        /// Effective address.
        addr: Addr,
        /// Machine type of the stored datum.
        ty: ValueType,
    },
}

impl TraceOp {
    /// Number of dynamic instructions this record stands for.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        match self {
            TraceOp::Compute(n) => u64::from(*n),
            _ => 1,
        }
    }
}

/// The instruction trace of one application thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadTrace {
    /// Records in program order.
    pub ops: Vec<TraceOp>,
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Load instructions.
    pub loads: u64,
    /// Loads annotated approximate.
    pub approx_loads: u64,
    /// Store instructions.
    pub stores: u64,
}

impl ThreadTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        ThreadTrace::default()
    }

    /// Appends `n` compute instructions, merging with a trailing compute
    /// record when possible.
    pub fn push_compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        if let Some(TraceOp::Compute(last)) = self.ops.last_mut() {
            if let Some(sum) = last.checked_add(n) {
                *last = sum;
                return;
            }
        }
        self.ops.push(TraceOp::Compute(n));
    }

    /// Appends a load record.
    pub fn push_load(&mut self, pc: Pc, addr: Addr, ty: ValueType, approx: bool, value: Value) {
        self.ops.push(TraceOp::Load {
            pc,
            addr,
            ty,
            approx,
            value,
        });
    }

    /// Appends a store record.
    pub fn push_store(&mut self, pc: Pc, addr: Addr, ty: ValueType) {
        self.ops.push(TraceOp::Store { pc, addr, ty });
    }

    /// Computes summary statistics in one pass.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for op in &self.ops {
            s.instructions += op.instructions();
            match op {
                TraceOp::Load { approx, .. } => {
                    s.loads += 1;
                    if *approx {
                        s.approx_loads += 1;
                    }
                }
                TraceOp::Store { .. } => s.stores += 1,
                TraceOp::Compute(_) => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_records_merge() {
        let mut t = ThreadTrace::new();
        t.push_compute(3);
        t.push_compute(2);
        t.push_compute(0);
        assert_eq!(t.ops, vec![TraceOp::Compute(5)]);
    }

    #[test]
    fn merge_does_not_overflow() {
        let mut t = ThreadTrace::new();
        t.push_compute(u32::MAX - 1);
        t.push_compute(5);
        assert_eq!(t.ops.len(), 2);
        assert_eq!(t.stats().instructions, u64::from(u32::MAX) + 4);
    }

    #[test]
    fn stats_count_each_kind() {
        let mut t = ThreadTrace::new();
        t.push_compute(10);
        t.push_load(
            Pc(1),
            Addr(0x40),
            ValueType::F32,
            true,
            Value::from_f32(1.0),
        );
        t.push_load(Pc(2), Addr(0x80), ValueType::I32, false, Value::from_i32(3));
        t.push_store(Pc(3), Addr(0xc0), ValueType::F32);
        let s = t.stats();
        assert_eq!(s.instructions, 13);
        assert_eq!(s.loads, 2);
        assert_eq!(s.approx_loads, 1);
        assert_eq!(s.stores, 1);
    }
}
