//! # lva-noc — mesh network-on-chip timing model
//!
//! Models the paper's interconnect (Table II): a 2×2 mesh with 3-cycle
//! routers and single-cycle links, carrying coherence traffic between the
//! private L1s and the distributed shared L2 banks. This plays the role
//! BookSim plays in the paper's methodology (§V-B) at the fidelity the
//! experiments need: per-hop pipeline latency, per-link serialization of
//! multi-flit packets, and flit-hop counts for the traffic and energy
//! results (Fig. 10).
//!
//! Packets are generic over their payload so the coherence protocol in
//! `lva-sim` can ship its own message enum through the mesh.
//!
//! ## Example
//!
//! ```
//! use lva_noc::{Mesh, MeshConfig, NodeId, Plane};
//!
//! let mut mesh: Mesh<&'static str> = Mesh::new(MeshConfig::paper());
//! mesh.send_on(Plane::Fast, 0, NodeId(0), NodeId(3), 1, "GetS");
//! // 2 hops x (3-cycle router + 1-cycle link) = 8 cycles for a 1-flit packet.
//! assert_eq!(mesh.pop_arrived(NodeId(3), 7), None);
//! assert_eq!(mesh.pop_arrived(NodeId(3), 8), Some("GetS"));
//! assert_eq!(mesh.pop_arrived(NodeId(3), 8), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a mesh node (tile). Nodes are numbered row-major:
/// node `y * width + x` sits at `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Which physical network plane a packet travels on.
///
/// §VI-C: because approximators tolerate high value delays, training
/// fetches can be deprioritized onto low-energy NoCs and memory paths. A
/// heterogeneous mesh has a second, slower plane whose links burn less
/// energy per flit; latency-critical coherence traffic stays on the fast
/// plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Plane {
    /// The regular, latency-optimized network.
    #[default]
    Fast,
    /// The slow, energy-optimized plane for approximate training traffic.
    LowPower,
}

/// Latency parameters of the optional low-power plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowPowerPlane {
    /// Router pipeline depth on the slow plane (deeper, lower voltage).
    pub router_cycles: u64,
    /// Link traversal on the slow plane.
    pub link_cycles: u64,
}

impl Default for LowPowerPlane {
    fn default() -> Self {
        // Half-frequency plane: everything takes twice as long.
        LowPowerPlane {
            router_cycles: 6,
            link_cycles: 2,
        }
    }
}

/// Mesh geometry and pipeline latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Mesh width (columns).
    pub width: usize,
    /// Mesh height (rows).
    pub height: usize,
    /// Router pipeline depth in cycles (Table II: 3).
    pub router_cycles: u64,
    /// Link traversal in cycles.
    pub link_cycles: u64,
}

impl MeshConfig {
    /// The paper's 2×2 mesh with 3-cycle routers (Table II).
    #[must_use]
    pub const fn paper() -> Self {
        MeshConfig {
            width: 2,
            height: 2,
            router_cycles: 3,
            link_cycles: 1,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }
}

impl Default for MeshConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Flit-hops: each flit crossing each link counts once — the paper's
    /// "interconnect traffic" proxy and the NoC energy driver.
    pub flit_hops: u64,
    /// Flit-hops carried by the low-power plane (subset of `flit_hops`).
    pub low_power_flit_hops: u64,
    /// Sum over packets of (delivery − injection) cycles. The full system
    /// reads only the flit-hop counts; the mesh's shadow-model tests read
    /// each packet's delivery cycle as this sum's growth across one send.
    pub total_latency: u64,
}

/// A cycle-driven mesh NoC delivering generic payloads.
///
/// Senders call [`send_on`](Mesh::send_on) with the current cycle; receivers call
/// [`pop_arrived`](Mesh::pop_arrived) until it returns `None` to drain
/// packets whose tail flit has arrived, at any cycle at or after
/// [`next_arrival`](Mesh::next_arrival). Each node's packets come out in
/// arrival order, ties in send order, however late they are polled.
/// Contention is modelled per directed link: a link carries one flit per
/// [`MeshConfig::link_cycles`], so multi-flit data packets delay later
/// packets sharing the link (wormhole-style serialization without per-VC
/// detail).
#[derive(Debug)]
pub struct Mesh<P> {
    config: MeshConfig,
    /// `(x, y)` of every node, so routing divides by the width only once.
    coords: Vec<(usize, usize)>,
    /// `link_free[l]` = first cycle link `l` can accept a new head flit.
    /// Directed links indexed `node * 4 + direction` (E, W, S, N).
    link_free: Vec<u64>,
    /// Link availability of the low-power plane, when one exists.
    low_power: Option<(LowPowerPlane, Vec<u64>)>,
    /// Per destination node, `(arrival, payload)` in delivery order.
    queues: Vec<VecDeque<(u64, P)>>,
    /// Per destination node, the arrival of its queue's front packet;
    /// `u64::MAX` when the queue is empty.
    heads: Vec<u64>,
    /// The least of `heads`.
    earliest: u64,
    stats: MeshStats,
}

const DIR_E: usize = 0;
const DIR_W: usize = 1;
const DIR_S: usize = 2;
const DIR_N: usize = 3;

/// Walks an XY route one link at a time — X first, then Y — without
/// materializing it.
#[derive(Debug, Clone, Copy)]
struct XyRoute {
    width: usize,
    /// Current `(x, y)`.
    at: (usize, usize),
    /// Destination `(x, y)`.
    to: (usize, usize),
}

impl Iterator for XyRoute {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let ((x, y), (dx, dy)) = (self.at, self.to);
        let node = y * self.width + x;
        let dir = if dx > x {
            self.at.0 += 1;
            DIR_E
        } else if dx < x {
            self.at.0 -= 1;
            DIR_W
        } else if dy > y {
            self.at.1 += 1;
            DIR_S
        } else if dy < y {
            self.at.1 -= 1;
            DIR_N
        } else {
            return None;
        };
        Some((node, dir))
    }
}

impl<P> Mesh<P> {
    /// Builds a mesh of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if a hop would take no time
    /// (zero router and link cycles).
    #[must_use]
    pub fn new(config: MeshConfig) -> Self {
        assert!(config.width > 0 && config.height > 0, "degenerate mesh");
        assert!(
            config.router_cycles + config.link_cycles > 0,
            "zero-latency mesh"
        );
        Mesh {
            config,
            coords: (0..config.nodes())
                .map(|n| (n % config.width, n / config.width))
                .collect(),
            link_free: vec![0; config.nodes() * 4],
            low_power: None,
            queues: (0..config.nodes()).map(|_| VecDeque::new()).collect(),
            heads: vec![u64::MAX; config.nodes()],
            earliest: u64::MAX,
            stats: MeshStats::default(),
        }
    }

    /// Builds a heterogeneous mesh with an additional low-power plane
    /// (§VI-C). Packets choose their plane via [`send_on`](Mesh::send_on).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if a hop on either plane
    /// would take no time.
    #[must_use]
    pub fn new_heterogeneous(config: MeshConfig, low_power: LowPowerPlane) -> Self {
        assert!(
            low_power.router_cycles + low_power.link_cycles > 0,
            "zero-latency low-power plane"
        );
        let mut mesh = Self::new(config);
        mesh.low_power = Some((low_power, vec![0; config.nodes() * 4]));
        mesh
    }

    /// Traffic statistics so far.
    #[must_use]
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    /// XY route from `src` to `dst`: the (node, outgoing direction) pair
    /// of every link crossed, in order. Empty when `src == dst`.
    fn route(&self, src: NodeId, dst: NodeId) -> XyRoute {
        XyRoute {
            width: self.config.width,
            at: self.coords[src.0],
            to: self.coords[dst.0],
        }
    }

    /// Injects a `flits`-flit packet at cycle `now` on `plane`, to be
    /// delivered to `dst`'s queue when its tail flit arrives. Local
    /// (src == dst) delivery takes one cycle and crosses no links. Sending
    /// on [`Plane::LowPower`] without a low-power plane falls back to the
    /// fast plane (a homogeneous mesh simply has no slow network).
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range or `flits` is zero.
    pub fn send_on(
        &mut self,
        plane: Plane,
        now: u64,
        src: NodeId,
        dst: NodeId,
        flits: u64,
        payload: P,
    ) {
        assert!(src.0 < self.config.nodes(), "bad src {src}");
        assert!(dst.0 < self.config.nodes(), "bad dst {dst}");
        assert!(flits > 0, "packets need at least one flit");

        let (router_cycles, link_cycles, slow) = match (plane, &self.low_power) {
            (Plane::LowPower, Some((p, _))) => (p.router_cycles, p.link_cycles, true),
            _ => (self.config.router_cycles, self.config.link_cycles, false),
        };

        let mut head = now;
        for (node, dir) in self.route(src, dst) {
            let link = node * 4 + dir;
            let link_free = if slow {
                &mut self.low_power.as_mut().expect("slow plane exists").1[link]
            } else {
                &mut self.link_free[link]
            };
            // Router pipeline, then wait for the link, then traverse.
            head += router_cycles;
            let start = head.max(*link_free);
            *link_free = start + flits * link_cycles;
            head = start + link_cycles;
            self.stats.flit_hops += flits;
            if slow {
                self.stats.low_power_flit_hops += flits;
            }
        }
        let arrival = if src == dst {
            now + 1
        } else {
            // Tail flit trails the head by (flits - 1) link cycles.
            head + (flits - 1) * link_cycles
        };
        self.stats.total_latency += arrival - now;
        // Behind every packet arriving no later: ties leave in send order.
        // Most packets arrive after everything queued, so append those.
        let q = &mut self.queues[dst.0];
        match q.back() {
            Some(&(last, _)) if last > arrival => {
                q.insert(
                    q.partition_point(|&(at, _)| at <= arrival),
                    (arrival, payload),
                );
            }
            _ => q.push_back((arrival, payload)),
        }
        self.heads[dst.0] = self.heads[dst.0].min(arrival);
        self.earliest = self.earliest.min(arrival);
    }

    /// Removes and returns the earliest packet whose tail has arrived at
    /// `node` by cycle `now`, if any. Packets come out in arrival order,
    /// ties in send order. Every packet arrives at least one cycle after it
    /// is sent, so a packet sent at `now` while handling the ones popped
    /// here is not returned until a later cycle.
    pub fn pop_arrived(&mut self, node: NodeId, now: u64) -> Option<P> {
        let head = self.heads[node.0];
        if head > now {
            return None;
        }
        let q = &mut self.queues[node.0];
        // An empty queue's head reads `u64::MAX`, which a poll at
        // `u64::MAX` does not exceed.
        let (_, payload) = q.pop_front()?;
        self.heads[node.0] = q.front().map_or(u64::MAX, |&(at, _)| at);
        if head == self.earliest {
            self.earliest = self.heads.iter().copied().min().unwrap_or(u64::MAX);
        }
        Some(payload)
    }

    /// The earliest pending arrival cycle at any node, if any packet is in
    /// flight — lets callers jump an idle simulation to it.
    #[must_use]
    pub fn next_arrival(&self) -> Option<u64> {
        (self.earliest != u64::MAX).then_some(self.earliest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::Rng64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn mesh() -> Mesh<u32> {
        Mesh::new(MeshConfig::paper())
    }

    /// Every packet arrived at `node` by `now`, in the order
    /// [`Mesh::pop_arrived`] returns them.
    fn drain<P>(m: &mut Mesh<P>, node: NodeId, now: u64) -> Vec<P> {
        std::iter::from_fn(|| m.pop_arrived(node, now)).collect()
    }

    #[test]
    fn one_hop_latency_is_router_plus_link() {
        let mut m = mesh();
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 1, 7);
        assert!(drain(&mut m, NodeId(1), 3).is_empty());
        assert_eq!(drain(&mut m, NodeId(1), 4), vec![7]);
    }

    #[test]
    fn diagonal_is_two_hops() {
        for (src, dst, hops) in [(0, 3, 2), (1, 2, 2), (2, 2, 0)] {
            let mut m = mesh();
            m.send_on(Plane::Fast, 0, NodeId(src), NodeId(dst), 1, 0);
            assert_eq!(m.stats().flit_hops, hops, "{src} -> {dst}");
        }
    }

    #[test]
    fn multi_flit_packets_serialize_on_links() {
        let mut m = mesh();
        // Two 5-flit data packets on the same link back to back.
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 5, 1);
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 5, 2);
        // First: head 0+3(router), link free at 0 -> start 3, arrive head 4,
        // tail 8. Second: head 3, link free at 8 -> start 8, head 9, tail 13.
        assert_eq!(drain(&mut m, NodeId(1), 8), vec![1]);
        assert!(drain(&mut m, NodeId(1), 12).is_empty());
        assert_eq!(drain(&mut m, NodeId(1), 13), vec![2]);
    }

    #[test]
    fn local_delivery_is_one_cycle_and_free() {
        let mut m = mesh();
        m.send_on(Plane::Fast, 10, NodeId(2), NodeId(2), 5, 9);
        assert_eq!(drain(&mut m, NodeId(2), 11), vec![9]);
        assert_eq!(m.stats().flit_hops, 0);
    }

    #[test]
    fn flit_hops_account_hops_times_flits() {
        let mut m = mesh();
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(3), 5, 0);
        assert_eq!(m.stats().flit_hops, 10);
        m.send_on(Plane::Fast, 0, NodeId(1), NodeId(0), 1, 0);
        assert_eq!(m.stats().flit_hops, 11);
    }

    #[test]
    fn disjoint_links_do_not_contend() {
        let mut m = mesh();
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 5, 1); // east link of node 0
        m.send_on(Plane::Fast, 0, NodeId(2), NodeId(3), 5, 2); // east link of node 2
        assert_eq!(drain(&mut m, NodeId(1), 8), vec![1]);
        assert_eq!(drain(&mut m, NodeId(3), 8), vec![2]);
    }

    #[test]
    fn pop_arrived_returns_in_arrival_order() {
        let mut m = mesh();
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(3), 5, 1); // slower: 2 hops, 5 flits
        m.send_on(Plane::Fast, 1, NodeId(2), NodeId(3), 1, 2); // faster: disjoint 1-hop route
        let got = drain(&mut m, NodeId(3), 100);
        assert_eq!(got, vec![2, 1]);
    }

    #[test]
    fn pop_arrived_breaks_arrival_ties_in_send_order() {
        let mut m = mesh();
        // A 5-flit packet one hop south from node 0 arrives at 8, and a
        // local packet sent before the rest arrives at 31.
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(2), 5, 0);
        m.send_on(Plane::Fast, 30, NodeId(2), NodeId(2), 1, 9);
        // Three packets reach node 2 at cycle 11: one hop west from node 3
        // and one hop south from node 0, both sent at 7, and a local one
        // sent at 10.
        m.send_on(Plane::Fast, 7, NodeId(3), NodeId(2), 1, 2);
        m.send_on(Plane::Fast, 7, NodeId(0), NodeId(2), 1, 1);
        m.send_on(Plane::Fast, 10, NodeId(2), NodeId(2), 1, 3);
        assert_eq!(m.pop_arrived(NodeId(2), 8), Some(0));
        assert_eq!(m.pop_arrived(NodeId(2), 10), None);
        assert_eq!(drain(&mut m, NodeId(2), 11), vec![2, 1, 3]);
        assert_eq!(drain(&mut m, NodeId(2), 30), Vec::<u32>::new());
        assert_eq!(drain(&mut m, NodeId(2), 31), vec![9]);
    }

    #[test]
    fn pop_arrived_waits_for_the_tail_flit() {
        let mut m = mesh();
        // One hop: the head arrives at 4, the fifth flit four cycles later.
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 5, 7);
        for now in 4..8 {
            assert_eq!(m.pop_arrived(NodeId(1), now), None, "tail not in at {now}");
        }
        assert_eq!(m.pop_arrived(NodeId(1), 8), Some(7));
        assert_eq!(m.pop_arrived(NodeId(1), 8), None);
    }

    #[test]
    fn packets_sent_while_handling_arrive_in_a_later_cycle() {
        let mut m = mesh();
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 1, 1);
        // Handling the packet at cycle 4 sends node 1 a local packet and
        // one from node 0; neither comes out at 4.
        assert_eq!(m.pop_arrived(NodeId(1), 4), Some(1));
        m.send_on(Plane::Fast, 4, NodeId(1), NodeId(1), 1, 2);
        m.send_on(Plane::Fast, 4, NodeId(0), NodeId(1), 1, 3);
        assert_eq!(m.pop_arrived(NodeId(1), 4), None);
        assert_eq!(m.pop_arrived(NodeId(1), 5), Some(2));
        assert_eq!(m.pop_arrived(NodeId(1), 7), None);
        assert_eq!(m.pop_arrived(NodeId(1), 8), Some(3));
    }

    /// The queue discipline the sorted per-node queues replace: a binary
    /// heap per node ordered by (arrival, send sequence).
    struct HeapModel {
        queues: Vec<BinaryHeap<Reverse<(u64, u64, u32)>>>,
        seq: u64,
    }

    impl HeapModel {
        fn push(&mut self, dst: NodeId, arrival: u64, payload: u32) {
            self.seq += 1;
            self.queues[dst.0].push(Reverse((arrival, self.seq, payload)));
        }

        fn pop_arrived(&mut self, node: NodeId, now: u64) -> Option<u32> {
            let q = &mut self.queues[node.0];
            if q.peek()?.0 .0 > now {
                return None;
            }
            q.pop().map(|Reverse((_, _, p))| p)
        }

        fn next_arrival(&self) -> Option<u64> {
            self.queues
                .iter()
                .filter_map(|q| q.peek().map(|r| r.0 .0))
                .min()
        }
    }

    #[test]
    fn queues_match_the_binary_heap_model() {
        for case in 0..64u64 {
            let mut rng = Rng64::new(0x006e_6f63 ^ case);
            let config = MeshConfig::paper();
            let mut m: Mesh<u32> = Mesh::new_heterogeneous(config, LowPowerPlane::default());
            let mut model = HeapModel {
                queues: (0..config.nodes()).map(|_| BinaryHeap::new()).collect(),
                seq: 0,
            };
            let (mut clock, mut popped) = (0u64, 0usize);
            for payload in 0..400u32 {
                if rng.gen_bool(0.6) {
                    // A send now or in the future (a bank's delayed reply,
                    // a deprioritized training fetch), on either plane.
                    let plane = if rng.gen_bool(0.3) {
                        Plane::LowPower
                    } else {
                        Plane::Fast
                    };
                    let now = clock + rng.gen_range(0u64..40) * u64::from(rng.gen_bool(0.3));
                    let src = NodeId(rng.gen_range(0usize..4));
                    let dst = NodeId(rng.gen_range(0usize..4));
                    let flits = rng.gen_range(1u64..6);
                    // The mesh's own timing sets the arrival; the model
                    // only checks the order packets come out in.
                    let before = m.stats().total_latency;
                    m.send_on(plane, now, src, dst, flits, payload);
                    model.push(dst, now + m.stats().total_latency - before, payload);
                } else {
                    // A poll, often many cycles after the last one.
                    clock += rng.gen_range(0u64..30);
                    let node = NodeId(rng.gen_range(0usize..4));
                    let got = drain(&mut m, node, clock);
                    let want: Vec<u32> =
                        std::iter::from_fn(|| model.pop_arrived(node, clock)).collect();
                    assert_eq!(got, want, "case {case}: node {node} at {clock}");
                    popped += got.len();
                }
                assert_eq!(m.next_arrival(), model.next_arrival(), "case {case}");
            }
            assert!(popped > 0, "case {case}: nothing was delivered");
        }
    }

    #[test]
    #[should_panic(expected = "zero-latency mesh")]
    fn zero_latency_meshes_are_rejected() {
        let _: Mesh<()> = Mesh::new(MeshConfig {
            router_cycles: 0,
            link_cycles: 0,
            ..MeshConfig::paper()
        });
    }

    #[test]
    fn total_latency_is_the_delivery_cycle_of_a_packet_sent_at_zero() {
        let mut m = mesh();
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 1, 0);
        assert!(m.stats().total_latency >= 4);
        assert_eq!(m.next_arrival(), Some(m.stats().total_latency));
    }

    #[test]
    fn next_arrival_tracks_earliest_packet() {
        let mut m = mesh();
        assert_eq!(m.next_arrival(), None);
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 1, 0);
        assert_eq!(m.next_arrival(), Some(4));
        let _ = drain(&mut m, NodeId(1), 4);
        assert_eq!(m.next_arrival(), None);
    }

    #[test]
    fn next_arrival_reports_packets_injected_in_the_future() {
        // Senders may inject at a later cycle than the one they run in
        // (a bank's data reply after its access latency, a deprioritized
        // training fetch): the packet is in flight from the moment it is
        // sent, and must show up in `next_arrival` before it can arrive.
        let mut m = mesh();
        // 5-flit packet injected at 100, one hop: head 100+3+1 = 104,
        // tail 4 link cycles later.
        m.send_on(Plane::Fast, 100, NodeId(0), NodeId(1), 5, 1);
        assert_eq!(m.next_arrival(), Some(108));
        // A local packet injected at 50 arrives at 51 and comes first.
        m.send_on(Plane::Fast, 50, NodeId(2), NodeId(2), 1, 2);
        assert_eq!(m.next_arrival(), Some(51));
        for now in [0, 49, 50] {
            assert!(drain(&mut m, NodeId(2), now).is_empty(), "early at {now}");
        }
        assert_eq!(drain(&mut m, NodeId(2), 51), vec![2]);
        assert_eq!(m.next_arrival(), Some(108));
        for now in [0, 51, 100, 107] {
            assert!(drain(&mut m, NodeId(1), now).is_empty(), "early at {now}");
        }
        assert_eq!(drain(&mut m, NodeId(1), 108), vec![1]);
        assert_eq!(m.next_arrival(), None);
    }

    #[test]
    fn low_power_plane_is_slower_but_isolated() {
        let mut m: Mesh<u32> =
            Mesh::new_heterogeneous(MeshConfig::paper(), LowPowerPlane::default());
        // Fast-plane packet: 1 hop, arrives at 4 as usual.
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 1, 1);
        // Low-power packet on the same physical route: 6-cycle router +
        // 2-cycle link = 8, and it does NOT contend with the fast plane.
        m.send_on(Plane::LowPower, 0, NodeId(0), NodeId(1), 1, 2);
        assert_eq!(drain(&mut m, NodeId(1), 4), vec![1]);
        assert!(drain(&mut m, NodeId(1), 7).is_empty());
        assert_eq!(drain(&mut m, NodeId(1), 8), vec![2]);
        assert_eq!(m.stats().low_power_flit_hops, 1);
        assert_eq!(m.stats().flit_hops, 2);
    }

    #[test]
    fn low_power_send_without_plane_falls_back_to_fast() {
        let mut m: Mesh<u32> = Mesh::new(MeshConfig::paper());
        m.send_on(Plane::LowPower, 0, NodeId(0), NodeId(1), 1, 7);
        assert_eq!(drain(&mut m, NodeId(1), 4), vec![7]);
        assert_eq!(m.stats().low_power_flit_hops, 0);
    }

    #[test]
    fn planes_serialize_independently() {
        let mut m: Mesh<u32> =
            Mesh::new_heterogeneous(MeshConfig::paper(), LowPowerPlane::default());
        // Saturate the fast plane's link with a big packet...
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), 5, 1);
        // ...the slow plane is unaffected: arrives at 0+6+2 = 8 + 0 tail.
        m.send_on(Plane::LowPower, 0, NodeId(0), NodeId(1), 1, 2);
        let got = drain(&mut m, NodeId(1), 8);
        assert!(got.contains(&1) && got.contains(&2), "{got:?}");
    }

    #[test]
    fn larger_mesh_routes_xy() {
        let mut m: Mesh<()> = Mesh::new(MeshConfig {
            width: 4,
            height: 4,
            router_cycles: 3,
            link_cycles: 1,
        });
        // (0,0) -> (3,2): 3 east hops then 2 south hops.
        m.send_on(Plane::Fast, 0, NodeId(0), NodeId(2 * 4 + 3), 1, ());
        assert_eq!(m.stats().flit_hops, 5);
        // Every pair on narrow, wide and non-square meshes: Manhattan
        // distance, one flit-hop per flit per link.
        for (width, height) in [(1, 1), (1, 5), (5, 1), (3, 4), (7, 2)] {
            let mut m: Mesh<()> = Mesh::new(MeshConfig {
                width,
                height,
                ..MeshConfig::paper()
            });
            let n = width * height;
            for src in 0..n {
                for dst in 0..n {
                    let manhattan =
                        (src % width).abs_diff(dst % width) + (src / width).abs_diff(dst / width);
                    let before = m.stats().flit_hops;
                    m.send_on(Plane::Fast, 0, NodeId(src), NodeId(dst), 3, ());
                    assert_eq!(
                        m.stats().flit_hops - before,
                        3 * manhattan as u64,
                        "{src}->{dst} on {width}x{height}"
                    );
                }
            }
        }
    }
}
