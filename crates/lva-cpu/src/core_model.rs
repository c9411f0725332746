//! The out-of-order core: a ROB-occupancy timing model over a thread trace.

use crate::{ThreadTrace, TraceOp};
use lva_core::{Addr, Pc, Value, ValueType};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a load a core issues: the ROB sequence number of the
/// entry it would occupy while pending. Unique per core, not across cores;
/// the memory system tells cores apart by the core index it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// How the memory system answered a load issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadResponse {
    /// The load's value is available at cycle `at` (L1 hit, or an
    /// approximated miss — the whole point of LVA).
    Done {
        /// Completion cycle.
        at: u64,
    },
    /// The load misses and must wait; the memory system will call
    /// [`OooCore::complete`] with the load's [`ReqId`] when data arrives.
    Pending,
}

/// The memory system as seen by a core. Implemented by the full-system
/// simulator in `lva-sim`; simple mocks suffice for unit tests.
pub trait MemoryPort {
    /// Issues load `req` dispatched at `now`. The `approx` flag and
    /// precise `value` come straight from the trace so the port can drive
    /// the approximator.
    #[allow(clippy::too_many_arguments)]
    fn load(
        &mut self,
        core: usize,
        req: ReqId,
        now: u64,
        pc: Pc,
        addr: Addr,
        ty: ValueType,
        approx: bool,
        value: Value,
    ) -> LoadResponse;

    /// Issues a store dispatched at `now`. Stores retire through the store
    /// buffer and are off the critical path (§V-A); the port only sees them
    /// for coherence traffic.
    fn store(&mut self, core: usize, now: u64, pc: Pc, addr: Addr);
}

/// Retired-instruction and stall statistics for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles in which nothing retired while a pending load blocked the ROB
    /// head — the exposed miss latency LVA attacks.
    pub head_stall_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Done(u64),
    PendingLoad,
}

/// A run of `count` adjacent ROB slots in one state. Slots that complete in
/// the same cycle share an entry, so a cycle's compute dispatch is one
/// push; a pending load always has an entry of its own.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    /// Entry sequence number. Entries are numbered contiguously from the
    /// head, so the entry a load response resolves is found by index.
    seq: u64,
    count: usize,
    state: SlotState,
}

/// Cycles the core skips, applied in closed form by `OooCore::catch_up`.
/// Cycles up to `from` are applied.
#[derive(Debug, Clone, Copy)]
enum Idle {
    /// A steady-compute span: each of the cycles `from + 1 ..= to` retires
    /// `width` slots and dispatches `width` compute instructions, and calls
    /// no port.
    Sleep { from: u64, to: u64 },
    /// The head is a pending load and nothing can dispatch: each cycle
    /// after `from` is a head stall, until the head's load completes.
    Blocked { from: u64 },
}

/// An out-of-order core replaying one [`ThreadTrace`] (Table II's is
/// 4-wide with a 32-entry ROB).
///
/// Call [`tick`](Self::tick) with the memory port at every cycle from
/// [`next_tick`](Self::next_tick) on; deliver each miss completion via
/// [`complete`](Self::complete) at its cycle, before that cycle's tick. The
/// core is finished when [`is_done`](Self::is_done) returns true.
///
/// The model costs per event, not per instruction:
///
/// - **Run-length ROB.** Adjacent slots that complete in the same cycle
///   share one entry with a count, so a cycle's compute dispatch is a
///   single push and retirement takes from counts. Entries carry their own
///   sequence numbers, and a load's [`ReqId`] is its entry's, which keeps
///   [`complete`](Self::complete) an index.
/// - **Steady-compute sleep.** When a tick ends with every ROB slot done by
///   the next cycle, at least `width` slots in the ROB and at least `width`
///   compute instructions left in the current run, each of the next
///   `compute_left / width` cycles retires `width`, dispatches `width`
///   compute instructions and calls no port. The core records that span.
/// - **Blocked.** When a tick ends with a pending load at the ROB head and
///   nothing left to dispatch (the ROB is full or the trace is spent),
///   every later cycle is one head stall until that load completes.
///
/// Inside either state [`tick`](Self::tick) returns at once, and
/// [`next_tick`](Self::next_tick) says when ticking resumes. The skipped
/// cycles are applied in closed form at the next real tick or at
/// [`catch_up`](Self::catch_up). [`stats`](Self::stats) is exact as of the
/// last real tick or `catch_up`; call [`catch_up`](Self::catch_up) before
/// reading it mid-run.
#[derive(Debug)]
pub struct OooCore {
    id: usize,
    width: usize,
    rob_capacity: usize,
    trace: ThreadTrace,
    /// Index of the next op to dispatch, plus progress inside a Compute run.
    next_op: usize,
    compute_left: usize,
    rob: VecDeque<RobEntry>,
    /// Slots in the ROB: the sum of the entries' counts.
    rob_len: usize,
    next_seq: u64,
    idle: Option<Idle>,
    stats: CoreStats,
}

impl OooCore {
    /// Creates a core that dispatches and retires `width` instructions a
    /// cycle through a `rob_capacity`-entry ROB.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `rob_capacity` is zero.
    #[must_use]
    pub fn with_shape(id: usize, trace: ThreadTrace, width: usize, rob_capacity: usize) -> Self {
        assert!(width > 0 && rob_capacity > 0, "degenerate core shape");
        OooCore {
            id,
            width,
            rob_capacity,
            trace,
            next_op: 0,
            compute_left: 0,
            rob: VecDeque::with_capacity(rob_capacity),
            rob_len: 0,
            next_seq: 0,
            idle: None,
            stats: CoreStats::default(),
        }
    }

    /// Retirement statistics, exact as of the last real tick or
    /// [`catch_up`](Self::catch_up).
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the whole trace has been dispatched and retired.
    #[must_use]
    #[inline]
    pub fn is_done(&self) -> bool {
        self.rob.is_empty() && self.compute_left == 0 && self.next_op >= self.trace.ops.len()
    }

    /// The first cycle whose [`tick`](Self::tick) can do anything, given no
    /// further completions: the cycle after a steady-compute span,
    /// `u64::MAX` while blocked or done, and 0 (every cycle) otherwise.
    /// Completing a blocked core's head load makes it 0.
    #[must_use]
    #[inline]
    pub fn next_tick(&self) -> u64 {
        match self.idle {
            Some(Idle::Sleep { to, .. }) => to + 1,
            Some(Idle::Blocked { .. }) if self.head_pending() => u64::MAX,
            _ if self.is_done() => u64::MAX,
            _ => 0,
        }
    }

    /// Marks the pending load `req` as completed at cycle `at`. An id that
    /// names no pending load changes nothing.
    pub fn complete(&mut self, req: ReqId, at: u64) {
        if let Some(entry) = self.rob_entry(req.0) {
            if entry.state == SlotState::PendingLoad {
                entry.state = SlotState::Done(at);
            }
        }
    }

    /// Applies the skipped cycles before `now`, so that
    /// [`stats`](Self::stats) counts every cycle ticked so far. Call it
    /// after the ticks of cycles `..now` and before reading statistics
    /// mid-run.
    pub fn catch_up(&mut self, now: u64) {
        let last = now.saturating_sub(1);
        match self.idle {
            Some(Idle::Blocked { from }) if last > from => {
                self.stats.head_stall_cycles += last - from;
                self.idle = Some(Idle::Blocked { from: last });
            }
            Some(Idle::Sleep { from, to }) if to.min(last) > from => {
                let last = to.min(last);
                // Each slept cycle retired `width` and dispatched `width`
                // compute instructions completing the cycle after. Every
                // slot is done by `last + 1`, so the next tick sees the
                // same retire schedule.
                let slots = self.width * usize::try_from(last - from).expect("span fits in usize");
                self.stats.retired += slots as u64;
                self.compute_left -= slots;
                let len = self.rob_len;
                self.rob.clear();
                self.rob_len = 0;
                if len > self.width {
                    self.push_run(SlotState::Done(last), len - self.width);
                }
                self.push_run(SlotState::Done(last + 1), self.width);
                self.idle = (last < to).then_some(Idle::Sleep { from: last, to });
            }
            _ => {}
        }
    }

    /// Whether the ROB head is a load still waiting for its data.
    #[inline]
    fn head_pending(&self) -> bool {
        self.rob
            .front()
            .is_some_and(|e| e.state == SlotState::PendingLoad)
    }

    /// The ROB entry holding sequence number `seq`, if it is still in
    /// flight. Entry sequence numbers are contiguous from the head, so
    /// this is an index, not a search.
    fn rob_entry(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let offset = seq.checked_sub(self.rob.front()?.seq)?;
        let entry = self.rob.get_mut(usize::try_from(offset).ok()?)?;
        debug_assert_eq!(entry.seq, seq, "ROB sequence numbers are contiguous");
        Some(entry)
    }

    /// Advances the core by one cycle: retires up to `width` completed
    /// instructions in order, then dispatches up to `width` new ones,
    /// issuing loads and stores to `port` in program order. Before
    /// [`next_tick`](Self::next_tick) it returns at once.
    pub fn tick<M: MemoryPort>(&mut self, now: u64, port: &mut M) {
        if now < self.next_tick() {
            return;
        }
        self.catch_up(now);
        self.idle = None;
        self.retire(now);
        self.dispatch(now, port);
        self.settle(now);
    }

    /// Retires up to `width` slots done by `now`, in order; a pending load
    /// at the head with nothing retired is a head stall.
    fn retire(&mut self, now: u64) {
        let mut retired = 0;
        while retired < self.width {
            let Some(head) = self.rob.front_mut() else {
                break;
            };
            match head.state {
                SlotState::Done(at) if at <= now => {
                    let n = head.count.min(self.width - retired);
                    head.count -= n;
                    if head.count == 0 {
                        self.rob.pop_front();
                    }
                    retired += n;
                }
                SlotState::PendingLoad if retired == 0 => {
                    self.stats.head_stall_cycles += 1;
                    break;
                }
                _ => break,
            }
        }
        self.rob_len -= retired;
        self.stats.retired += retired as u64;
    }

    /// Dispatches up to `width` instructions while the ROB has room,
    /// issuing each load and store to `port` as it dispatches.
    fn dispatch<M: MemoryPort>(&mut self, now: u64, port: &mut M) {
        let mut dispatched = 0;
        while dispatched < self.width && self.rob_len < self.rob_capacity {
            if self.compute_left > 0 {
                let n = (self.width - dispatched)
                    .min(self.rob_capacity - self.rob_len)
                    .min(self.compute_left);
                self.compute_left -= n;
                self.push_run(SlotState::Done(now + 1), n);
                dispatched += n;
                continue;
            }
            let Some(op) = self.trace.ops.get(self.next_op) else {
                break;
            };
            self.next_op += 1;
            match *op {
                // Zero-length batches dissolve immediately.
                TraceOp::Compute(n) => self.compute_left = n as usize,
                TraceOp::Load {
                    pc,
                    addr,
                    ty,
                    approx,
                    value,
                } => {
                    // A pending load never merges, so its entry's sequence
                    // number is `next_seq`: that is its request id.
                    let req = ReqId(self.next_seq);
                    let state = match port.load(self.id, req, now, pc, addr, ty, approx, value) {
                        LoadResponse::Done { at } => SlotState::Done(at.max(now + 1)),
                        LoadResponse::Pending => SlotState::PendingLoad,
                    };
                    self.push_run(state, 1);
                    dispatched += 1;
                }
                TraceOp::Store { pc, addr, .. } => {
                    port.store(self.id, now, pc, addr);
                    // Stores complete into the store buffer next cycle.
                    self.push_run(SlotState::Done(now + 1), 1);
                    dispatched += 1;
                }
            }
        }
    }

    /// Enters the idle state the tick of cycle `now` left the core in, if
    /// any. Blocked: the head is pending and the ROB is full or the trace
    /// spent. Asleep: every slot is done by `now + 1` and at least `width`
    /// slots sit in both the ROB and the compute run, so each of the next
    /// `compute_left / width` cycles retires `width` and dispatches `width`
    /// compute instructions.
    fn settle(&mut self, now: u64) {
        let spent = self.compute_left == 0 && self.next_op >= self.trace.ops.len();
        if self.head_pending() && (self.rob_len == self.rob_capacity || spent) {
            self.idle = Some(Idle::Blocked { from: now });
            return;
        }
        let w = self.width;
        if self.compute_left < w || self.rob_len < w {
            return;
        }
        let steady = |e: &RobEntry| matches!(e.state, SlotState::Done(at) if at <= now + 1);
        if self.rob.iter().all(steady) {
            let span = u64::try_from(self.compute_left / w).expect("span fits in u64");
            self.idle = Some(Idle::Sleep {
                from: now,
                to: now + span,
            });
        }
    }

    /// Appends `count` slots in `state`, merging them into the tail entry
    /// when it is done in the same cycle; a pending load never merges.
    fn push_run(&mut self, state: SlotState, count: usize) {
        self.rob_len += count;
        if let Some(tail) = self.rob.back_mut() {
            if matches!(state, SlotState::Done(_)) && tail.state == state {
                tail.count += count;
                return;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rob.push_back(RobEntry { seq, count, state });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All loads hit with the given latency.
    struct FixedLatency {
        latency: u64,
        loads: u64,
    }

    impl MemoryPort for FixedLatency {
        fn load(
            &mut self,
            _core: usize,
            _req: ReqId,
            now: u64,
            _pc: Pc,
            _addr: Addr,
            _ty: ValueType,
            _approx: bool,
            _value: Value,
        ) -> LoadResponse {
            self.loads += 1;
            LoadResponse::Done {
                at: now + self.latency,
            }
        }

        fn store(&mut self, _core: usize, _now: u64, _pc: Pc, _addr: Addr) {}
    }

    /// Loads become pending and complete `latency` cycles later; the test
    /// drives completions manually.
    struct PendingPort {
        latency: u64,
        inflight: Vec<(ReqId, u64)>,
    }

    impl PendingPort {
        fn new(latency: u64) -> Self {
            PendingPort {
                latency,
                inflight: Vec::new(),
            }
        }

        fn deliver(&mut self, now: u64, core: &mut OooCore) {
            let ready: Vec<_> = self
                .inflight
                .iter()
                .filter(|(_, at)| *at <= now)
                .map(|(r, at)| (*r, *at))
                .collect();
            self.inflight.retain(|(_, at)| *at > now);
            for (r, at) in ready {
                core.complete(r, at);
            }
        }
    }

    impl MemoryPort for PendingPort {
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
            self.inflight.push((req, now + self.latency));
            LoadResponse::Pending
        }

        fn store(&mut self, _core: usize, _now: u64, _pc: Pc, _addr: Addr) {}
    }

    /// Runs `trace` to completion: the cycle count, the core's stats and
    /// the loads the port received.
    fn run_fixed(trace: ThreadTrace, latency: u64) -> (u64, CoreStats, u64) {
        let mut core = OooCore::with_shape(0, trace, 4, 32);
        let mut port = FixedLatency { latency, loads: 0 };
        let mut now = 0;
        while !core.is_done() {
            core.tick(now, &mut port);
            now += 1;
            assert!(now < 1_000_000, "runaway simulation");
        }
        (now, *core.stats(), port.loads)
    }

    fn compute_trace(n: u32) -> ThreadTrace {
        let mut t = ThreadTrace::new();
        t.push_compute(n);
        t
    }

    #[test]
    fn compute_retires_at_full_width() {
        let (cycles, stats, _) = run_fixed(compute_trace(400), 1);
        assert_eq!(stats.retired, 400);
        // 4-wide: ~100 cycles plus small pipeline ramp.
        assert!((100..=110).contains(&cycles), "{cycles} cycles");
    }

    #[test]
    fn ooo_overlaps_independent_misses() {
        // 8 loads, 100-cycle latency each. A blocking core would take
        // ~800 cycles; the ROB overlaps them into ~100.
        let mut t = ThreadTrace::new();
        for i in 0..8 {
            t.push_load(
                Pc(i),
                Addr(i * 64),
                ValueType::F32,
                false,
                Value::from_f32(0.0),
            );
        }
        let mut core = OooCore::with_shape(0, t, 4, 32);
        let mut port = PendingPort::new(100);
        let mut now = 0;
        while !core.is_done() {
            port.deliver(now, &mut core);
            core.tick(now, &mut port);
            now += 1;
            assert!(now < 10_000);
        }
        assert!(now < 150, "took {now} cycles; misses must overlap");
        assert!(core.stats().head_stall_cycles >= 90, "head stalls expected");
    }

    #[test]
    fn rob_limits_miss_overlap() {
        // 64 loads with 100-cycle latency: a 32-entry ROB can only overlap
        // 32 at a time → at least two full latency exposures.
        let mut t = ThreadTrace::new();
        for i in 0..64 {
            t.push_load(
                Pc(i),
                Addr(i * 64),
                ValueType::F32,
                false,
                Value::from_f32(0.0),
            );
        }
        let mut core = OooCore::with_shape(0, t, 4, 32);
        let mut port = PendingPort::new(100);
        let mut now = 0;
        while !core.is_done() {
            port.deliver(now, &mut core);
            core.tick(now, &mut port);
            now += 1;
            assert!(now < 10_000);
        }
        assert!(now >= 200, "ROB must bound MLP, got {now}");
    }

    #[test]
    fn instant_loads_do_not_stall() {
        let mut t = ThreadTrace::new();
        for i in 0..100 {
            t.push_load(
                Pc(i),
                Addr(i * 64),
                ValueType::F32,
                true,
                Value::from_f32(0.0),
            );
        }
        let (cycles, stats, loads) = run_fixed(t, 1);
        assert_eq!(loads, 100);
        assert_eq!(stats.head_stall_cycles, 0);
        assert!(cycles <= 30, "{cycles}");
    }

    #[test]
    fn stores_never_block() {
        let mut t = ThreadTrace::new();
        for i in 0..100 {
            t.push_store(Pc(i), Addr(i * 64), ValueType::F32);
        }
        let (cycles, stats, _) = run_fixed(t, 1);
        assert_eq!(stats.retired, 100);
        assert!(cycles <= 30, "{cycles}");
    }

    #[test]
    fn mixed_trace_retires_everything_in_order() {
        let mut t = ThreadTrace::new();
        t.push_compute(10);
        t.push_load(Pc(1), Addr(0), ValueType::I32, false, Value::from_i32(1));
        t.push_compute(5);
        t.push_store(Pc(2), Addr(64), ValueType::I32);
        let (_, stats, _) = run_fixed(t, 3);
        assert_eq!(stats.retired, 17);
    }

    #[test]
    fn empty_trace_is_immediately_done() {
        let core = OooCore::with_shape(0, ThreadTrace::new(), 4, 32);
        assert!(core.is_done());
    }

    #[test]
    fn completion_of_unknown_request_is_ignored() {
        let mut core = OooCore::with_shape(0, ThreadTrace::new(), 4, 32);
        core.complete(ReqId(99), 5); // must not panic
        assert!(core.is_done());
    }

    #[test]
    fn blocked_core_skips_to_its_head_completion() {
        // One load that misses, then nothing: after its dispatch the head
        // is pending and the trace is spent, so the core blocks until the
        // load completes, and each skipped cycle is one head stall.
        let mut t = ThreadTrace::new();
        t.push_load(Pc(1), Addr(0), ValueType::F32, false, Value::from_f32(0.0));
        let mut core = OooCore::with_shape(0, t, 4, 32);
        let mut port = PendingPort::new(0);
        assert_eq!(core.next_tick(), 0);
        core.tick(0, &mut port);
        assert_eq!(core.next_tick(), u64::MAX, "blocked");
        core.catch_up(40);
        assert_eq!(core.stats().head_stall_cycles, 39, "cycles 1-39");
        // The head's data arrives at 100: the tick that sees it counts no
        // stall, and the load retires at 101.
        core.complete(ReqId(0), 101);
        assert_eq!(core.next_tick(), 0, "woken");
        core.tick(100, &mut port);
        assert_eq!(core.stats().head_stall_cycles, 99, "cycles 1-99");
        core.tick(101, &mut port);
        assert!(core.is_done());
        assert_eq!(core.next_tick(), u64::MAX, "done");
        assert_eq!(
            *core.stats(),
            CoreStats {
                retired: 1,
                head_stall_cycles: 99
            }
        );
    }

    #[test]
    fn out_of_order_completions_resolve_the_right_rob_slots() {
        // 40 pending loads through a 32-entry, 4-wide ROB. Each pending
        // load has an entry of its own, so load k is request and ROB
        // sequence k.
        // Completions arrive in reverse order and after the head has moved
        // past sequence 0, so each one must land on slot `seq - head`.
        let mut t = ThreadTrace::new();
        for i in 0..40 {
            t.push_load(
                Pc(i),
                Addr(i * 64),
                ValueType::F32,
                false,
                Value::from_f32(0.0),
            );
        }
        let mut core = OooCore::with_shape(0, t, 4, 32);
        let mut port = PendingPort::new(0);
        let mut retired_at: Vec<(u64, u64)> = Vec::new();
        let mut now = 0;
        while !core.is_done() {
            match now {
                // Sequences 0-31 dispatched over cycles 0-7; the ROB is full.
                20 => {
                    for req in (0..8).rev() {
                        core.complete(ReqId(req), 20);
                    }
                }
                // Sequences 0-7 retired at 20-21, making room for 32-39.
                // A second completion of a retired load changes nothing.
                25 => {
                    core.complete(ReqId(3), 25);
                    assert!(core.rob_entry(3).is_none(), "retired slot");
                    assert_eq!(core.rob_entry(8).map(|s| s.seq), Some(8), "head");
                    assert_eq!(core.rob_entry(39).map(|s| s.seq), Some(39), "tail");
                    assert!(core.rob_entry(40).is_none(), "never dispatched");
                }
                30 => {
                    for req in (8..40).rev() {
                        core.complete(ReqId(req), if req == 9 { 34 } else { 30 });
                    }
                }
                // Sequence 9 is done but not yet retired: a second
                // completion must not move its cycle.
                31 => core.complete(ReqId(9), 99),
                _ => {}
            }
            let before = core.stats().retired;
            core.tick(now, &mut port);
            let retired = core.stats().retired - before;
            if retired > 0 {
                retired_at.push((now, retired));
            }
            now += 1;
            assert!(now < 1_000, "a completion was lost");
        }
        // 20-21: sequences 0-7. 30: sequence 8; 9 is done at 34, so 31-33
        // retire nothing. 34-41: 9-39, four a cycle.
        let expected = [
            (20, 4),
            (21, 4),
            (30, 1),
            (34, 4),
            (35, 4),
            (36, 4),
            (37, 4),
            (38, 4),
            (39, 4),
            (40, 4),
            (41, 3),
        ];
        assert_eq!(retired_at, expected);
        assert_eq!(now, 42);
        // The head is a *pending* load at cycles 1-19 (sequence 0) and
        // 22-29 (sequence 8); a completed-but-not-yet-due head (31-33) is
        // not a pending-load stall.
        assert_eq!(core.stats().head_stall_cycles, 19 + 8);
        assert_eq!(core.stats().retired, 40);
    }
}
