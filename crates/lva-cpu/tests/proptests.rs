//! Property-based tests for the trace format and the OoO core model,
//! driven by deterministic seeded-PRNG case loops.

use lva_core::{Addr, Pc, Rng64, Value, ValueType};
use lva_cpu::{CoreStats, LoadResponse, MemoryPort, OooCore, ReqId, ThreadTrace, TraceOp};
use std::collections::{HashMap, VecDeque};

const CASES: u64 = 256;

fn rng_for(test_seed: u64, case: u64) -> Rng64 {
    Rng64::new(test_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
}

/// Memory port answering every load after a fixed latency, via pending
/// completions the test driver delivers.
struct DelayPort {
    latency: u64,
    inflight: Vec<(ReqId, u64)>,
    /// Loads received.
    loads: u64,
}

impl MemoryPort for DelayPort {
    fn load(
        &mut self,
        _core: usize,
        req: ReqId,
        now: u64,
        _pc: Pc,
        _addr: Addr,
        _ty: ValueType,
        _approx: bool,
        _value: Value,
    ) -> LoadResponse {
        self.loads += 1;
        if self.latency == 0 {
            return LoadResponse::Done { at: now + 1 };
        }
        self.inflight.push((req, now + self.latency));
        LoadResponse::Pending
    }

    fn store(&mut self, _core: usize, _now: u64, _pc: Pc, _addr: Addr) {}
}

fn arb_trace(rng: &mut Rng64) -> ThreadTrace {
    let n = rng.gen_range(0usize..60);
    let ops = (0..n)
        .map(|_| match rng.gen_range(0usize..3) {
            0 => TraceOp::Compute(rng.gen_range(1u32..20)),
            1 => {
                let pc = rng.gen_range(0u64..16);
                let b = rng.gen_range(0u64..64);
                TraceOp::Load {
                    pc: Pc(pc),
                    addr: Addr(b * 64),
                    ty: ValueType::F32,
                    approx: b.is_multiple_of(2),
                    value: Value::from_f32(b as f32),
                }
            }
            _ => {
                let pc = rng.gen_range(0u64..16);
                let b = rng.gen_range(0u64..64);
                TraceOp::Store {
                    pc: Pc(pc),
                    addr: Addr(b * 64),
                    ty: ValueType::F32,
                }
            }
        })
        .collect();
    ThreadTrace { ops }
}

/// Runs `trace` to completion: the cycle count, the core's stats and the
/// loads the port received.
fn run(trace: ThreadTrace, latency: u64) -> (u64, CoreStats, u64) {
    let mut core = OooCore::with_shape(0, trace, 4, 32);
    let mut port = DelayPort {
        latency,
        inflight: Vec::new(),
        loads: 0,
    };
    let mut now = 0u64;
    while !core.is_done() {
        let due: Vec<_> = port
            .inflight
            .iter()
            .filter(|(_, at)| *at <= now)
            .cloned()
            .collect();
        port.inflight.retain(|(_, at)| *at > now);
        for (req, at) in due {
            core.complete(req, at);
        }
        core.tick(now, &mut port);
        now += 1;
        assert!(now < 10_000_000, "runaway core");
    }
    (now, *core.stats(), port.loads)
}

/// Serialization round-trips arbitrary traces exactly.
#[test]
fn trace_io_round_trips() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let n = rng.gen_range(0usize..4);
        let traces: Vec<ThreadTrace> = (0..n).map(|_| arb_trace(&mut rng)).collect();
        let mut buf = Vec::new();
        lva_cpu::trace_io::write_traces(&mut buf, &traces).expect("write");
        let back = lva_cpu::trace_io::read_traces(buf.as_slice()).expect("read");
        assert_eq!(back, traces);
    }
}

/// Truncating a serialized trace at any point yields an error, never a
/// panic or a silently short result.
#[test]
fn trace_io_rejects_any_truncation() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let trace = arb_trace(&mut rng);
        if trace.ops.is_empty() {
            continue;
        }
        let cut = rng.gen_range(0.0f64..1.0);
        let mut buf = Vec::new();
        lva_cpu::trace_io::write_traces(&mut buf, &[trace]).expect("write");
        let cut_at = ((buf.len() - 1) as f64 * cut) as usize;
        // Anything shorter than the full file must error (the format has no
        // trailing padding).
        if cut_at < buf.len() {
            assert!(lva_cpu::trace_io::read_traces(&buf[..cut_at]).is_err());
        }
    }
}

/// The core retires exactly the number of instructions in the trace,
/// for any trace and memory latency.
#[test]
fn retires_exactly_trace_instructions() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let trace = arb_trace(&mut rng);
        let latency = rng.gen_range(0u64..50);
        let expected = trace.stats();
        let (_, stats, loads) = run(trace, latency);
        assert_eq!(stats.retired, expected.instructions);
        assert_eq!(loads, expected.loads);
    }
}

/// Higher memory latency never makes execution faster.
#[test]
fn latency_monotonicity() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let trace = arb_trace(&mut rng);
        let (fast, _, _) = run(trace.clone(), 2);
        let (slow, _, _) = run(trace, 60);
        assert!(slow >= fast, "slow {slow} < fast {fast}");
    }
}

/// Cycle count is at least instructions / width (the 4-wide bound) and
/// at most instructions x (latency + overhead) + slack.
#[test]
fn cycles_are_bounded() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let trace = arb_trace(&mut rng);
        let latency = rng.gen_range(1u64..40);
        let instr = trace.stats().instructions;
        let (cycles, _, _) = run(trace, latency);
        assert!(cycles >= instr / 4);
        assert!(
            cycles <= instr * (latency + 4) + 16,
            "{cycles} cycles for {instr} instructions at latency {latency}"
        );
    }
}

/// Compute-record merging preserves instruction counts.
#[test]
fn compute_merging_preserves_counts() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let n = rng.gen_range(0usize..50);
        let mut t = ThreadTrace::new();
        let mut expected = 0u64;
        for _ in 0..n {
            let c = rng.gen_range(0u32..1000);
            t.push_compute(c);
            expected += u64::from(c);
        }
        assert_eq!(t.stats().instructions, expected);
    }
}

/// The core model `OooCore` must match cycle for cycle: one ROB slot per
/// instruction, a real tick every cycle, no steady-compute sleep.
struct ReferenceCore {
    width: usize,
    rob_capacity: usize,
    trace: ThreadTrace,
    next_op: usize,
    compute_left: u32,
    /// `(seq, done_at)`; `None` while the load is pending.
    rob: VecDeque<(u64, Option<u64>)>,
    pending: HashMap<ReqId, u64>,
    next_seq: u64,
    stats: CoreStats,
}

enum Issue {
    Load(u64, Pc, Addr, ValueType, bool, Value),
    Store(Pc, Addr),
}

impl ReferenceCore {
    fn new(trace: ThreadTrace, width: usize, rob_capacity: usize) -> Self {
        ReferenceCore {
            width,
            rob_capacity,
            trace,
            next_op: 0,
            compute_left: 0,
            rob: VecDeque::new(),
            pending: HashMap::new(),
            next_seq: 0,
            stats: CoreStats::default(),
        }
    }

    fn is_done(&self) -> bool {
        self.rob.is_empty() && self.compute_left == 0 && self.next_op >= self.trace.ops.len()
    }

    fn slot(&mut self, seq: u64) -> Option<&mut Option<u64>> {
        let offset = seq.checked_sub(self.rob.front()?.0)?;
        self.rob
            .get_mut(usize::try_from(offset).ok()?)
            .map(|(_, s)| s)
    }

    fn complete(&mut self, req: ReqId, at: u64) {
        if let Some(seq) = self.pending.remove(&req) {
            if let Some(slot) = self.slot(seq) {
                *slot = Some(at);
            }
        }
    }

    fn push(&mut self, state: Option<u64>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rob.push_back((seq, state));
        seq
    }

    fn tick<M: MemoryPort>(&mut self, now: u64, port: &mut M) {
        let mut retired = 0;
        while retired < self.width {
            match self.rob.front() {
                Some((_, Some(at))) if *at <= now => {
                    self.rob.pop_front();
                    retired += 1;
                    self.stats.retired += 1;
                }
                Some((_, None)) if retired == 0 => {
                    self.stats.head_stall_cycles += 1;
                    break;
                }
                _ => break,
            }
        }
        let mut issues = Vec::new();
        let mut dispatched = 0;
        while dispatched < self.width && self.rob.len() < self.rob_capacity {
            if self.compute_left > 0 {
                self.compute_left -= 1;
                self.push(Some(now + 1));
                dispatched += 1;
                continue;
            }
            let Some(op) = self.trace.ops.get(self.next_op) else {
                break;
            };
            self.next_op += 1;
            match *op {
                TraceOp::Compute(n) => self.compute_left = n,
                TraceOp::Load {
                    pc,
                    addr,
                    ty,
                    approx,
                    value,
                } => {
                    let seq = self.push(None);
                    issues.push(Issue::Load(seq, pc, addr, ty, approx, value));
                    dispatched += 1;
                }
                TraceOp::Store { pc, addr, .. } => {
                    issues.push(Issue::Store(pc, addr));
                    self.push(Some(now + 1));
                    dispatched += 1;
                }
            }
        }
        for issue in issues {
            match issue {
                Issue::Load(seq, pc, addr, ty, approx, value) => {
                    let req = ReqId(seq);
                    match port.load(0, req, now, pc, addr, ty, approx, value) {
                        LoadResponse::Done { at } => {
                            if let Some(slot) = self.slot(seq) {
                                *slot = Some(at.max(now + 1));
                            }
                        }
                        LoadResponse::Pending => {
                            self.pending.insert(req, seq);
                        }
                    }
                }
                Issue::Store(pc, addr) => port.store(0, now, pc, addr),
            }
        }
    }
}

/// A seeded memory port: each load is done 1-3 cycles later, or pending
/// with a completion 0-200 cycles later. It logs every call, so two cores
/// driven by ports with the same seed see the same answers exactly when
/// they make the same calls.
struct RandomPort {
    rng: Rng64,
    inflight: Vec<(ReqId, u64)>,
    calls: Vec<(u64, u64, bool)>,
}

impl RandomPort {
    fn new(seed: u64) -> Self {
        RandomPort {
            rng: Rng64::new(seed),
            inflight: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// Completions due by `now`, in request order.
    fn due(&mut self, now: u64) -> Vec<(ReqId, u64)> {
        let due: Vec<_> = self
            .inflight
            .iter()
            .filter(|(_, at)| *at <= now)
            .copied()
            .collect();
        self.inflight.retain(|(_, at)| *at > now);
        due
    }

    /// The earliest cycle a completion is due, if any is in flight.
    fn next_due(&self) -> u64 {
        self.inflight
            .iter()
            .map(|&(_, at)| at)
            .min()
            .unwrap_or(u64::MAX)
    }
}

impl MemoryPort for RandomPort {
    fn load(
        &mut self,
        _core: usize,
        req: ReqId,
        now: u64,
        pc: Pc,
        _addr: Addr,
        _ty: ValueType,
        _approx: bool,
        _value: Value,
    ) -> LoadResponse {
        self.calls.push((now, pc.0, true));
        if self.rng.gen_bool(0.5) {
            return LoadResponse::Done {
                at: now + self.rng.gen_range(1u64..4),
            };
        }
        self.inflight
            .push((req, now + self.rng.gen_range(0u64..201)));
        LoadResponse::Pending
    }

    fn store(&mut self, _core: usize, now: u64, pc: Pc, _addr: Addr) {
        self.calls.push((now, pc.0, false));
    }
}

/// Compute runs of 0-300 instructions mixed with loads and stores.
fn compute_heavy_trace(rng: &mut Rng64) -> ThreadTrace {
    let n = rng.gen_range(0usize..40);
    let ops = (0..n)
        .map(|i| {
            let pc = Pc(i as u64);
            let addr = Addr(rng.gen_range(0u64..64) * 64);
            match rng.gen_range(0usize..4) {
                0 | 1 => TraceOp::Compute(rng.gen_range(0u32..301)),
                2 => TraceOp::Load {
                    pc,
                    addr,
                    ty: ValueType::F32,
                    approx: false,
                    value: Value::from_f32(0.0),
                },
                _ => TraceOp::Store {
                    pc,
                    addr,
                    ty: ValueType::F32,
                },
            }
        })
        .collect();
    ThreadTrace { ops }
}

/// The run-length ROB with steady-compute sleep and the blocked state is
/// cycle-exact against the per-instruction reference core, for widths 1-8
/// and ROBs of 1-128: the same port calls, the same statistics whenever
/// they are read, and the same cycle at which the trace is done. Odd cases
/// read the statistics every cycle (so per-cycle retirement matches); even
/// cases read them at random cycles, so `catch_up` applies many slept
/// cycles at once.
///
/// A second core is driven the way the full-system loop drives it: it is
/// ticked only at the cycles it or its port name (`next_tick`, the next
/// completion due), each completion is delivered at the first such cycle
/// it is due, and its statistics are read after `catch_up` at random
/// cycles, which may fall inside a skipped span.
#[test]
fn run_length_core_matches_the_per_instruction_reference() {
    let (mut lagged, mut blocked, mut skipped) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let width = rng.gen_range(1usize..9);
        let rob = rng.gen_range(1usize..129);
        let trace = compute_heavy_trace(&mut rng);
        let port_seed = rng.gen_u64();
        let every_cycle = case % 2 == 1;
        let mut core = OooCore::with_shape(0, trace.clone(), width, rob);
        let mut jumper = OooCore::with_shape(0, trace.clone(), width, rob);
        let mut reference = ReferenceCore::new(trace, width, rob);
        let (mut port, mut ref_port) = (RandomPort::new(port_seed), RandomPort::new(port_seed));
        let mut jump_port = RandomPort::new(port_seed);
        let mut reads = Rng64::new(port_seed ^ 0x5eed);
        let ctx = format!("case {case}: width {width}, ROB {rob}");
        let (mut now, mut visit) = (0u64, 0u64);
        while !reference.is_done() {
            for (req, at) in port.due(now) {
                core.complete(req, at);
            }
            for (req, at) in ref_port.due(now) {
                reference.complete(req, at);
            }
            core.tick(now, &mut port);
            reference.tick(now, &mut ref_port);
            if now == visit {
                for (req, at) in jump_port.due(now) {
                    jumper.complete(req, at);
                }
                jumper.tick(now, &mut jump_port);
                if jumper.next_tick() == u64::MAX && !jumper.is_done() {
                    blocked += 1;
                }
                visit = jumper.next_tick().min(jump_port.next_due()).max(now + 1);
                skipped += u64::from(visit > now + 1);
            }
            now += 1;
            assert_eq!(
                core.is_done(),
                reference.is_done(),
                "{ctx}: done at cycle {now}"
            );
            assert_eq!(
                jumper.is_done(),
                reference.is_done(),
                "{ctx}: event-driven core done at cycle {now}"
            );
            if every_cycle || rng.gen_bool(1.0 / 16.0) || reference.is_done() {
                if core.stats() != &reference.stats {
                    lagged += 1;
                }
                core.catch_up(now);
                assert_eq!(
                    core.stats(),
                    &reference.stats,
                    "{ctx}: after cycle {}",
                    now - 1
                );
            }
            if reads.gen_bool(1.0 / 8.0) || reference.is_done() {
                jumper.catch_up(now);
                assert_eq!(
                    jumper.stats(),
                    &reference.stats,
                    "{ctx}: event-driven core after cycle {}",
                    now - 1
                );
            }
            assert!(now < 1_000_000, "{ctx}: runaway core");
        }
        assert!(core.is_done(), "{ctx}");
        assert_eq!(port.calls, ref_port.calls, "{ctx}: port calls");
        assert_eq!(
            jump_port.calls, ref_port.calls,
            "{ctx}: event-driven port calls"
        );
    }
    assert!(lagged > 0, "no core ever slept through a cycle");
    assert!(blocked > 0, "no core ever blocked on its ROB head");
    assert!(skipped > 0, "the event-driven core never skipped a cycle");
}
