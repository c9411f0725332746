//! Property-based tests for the mesh NoC: delivery guarantees, latency
//! lower bounds and conservation of packets. Driven by deterministic
//! seeded-PRNG case loops.

use lva_core::Rng64;
use lva_noc::{LowPowerPlane, Mesh, MeshConfig, NodeId, Plane};

const CASES: u64 = 256;

fn rng_for(test_seed: u64, case: u64) -> Rng64 {
    Rng64::new(test_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
}

/// Links an XY-routed packet crosses between two nodes of the paper's
/// 2×2 mesh: the Manhattan distance between their (x, y) tiles.
fn hops(src: usize, dst: usize) -> u64 {
    ((src % 2).abs_diff(dst % 2) + (src / 2).abs_diff(dst / 2)) as u64
}

/// Every packet arrived at `node` by `now`, in the order
/// [`Mesh::pop_arrived`] returns them.
fn drain<P>(mesh: &mut Mesh<P>, node: NodeId, now: u64) -> Vec<P> {
    std::iter::from_fn(|| mesh.pop_arrived(node, now)).collect()
}

/// Every packet is delivered exactly once, to the right node, no
/// earlier than the contention-free minimum latency.
#[test]
fn packets_conserved_and_latency_bounded() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let n = rng.gen_range(1usize..100);
        let mut mesh: Mesh<usize> = Mesh::new(MeshConfig::paper());
        let mut mins: Vec<(usize, u64)> = Vec::new(); // (dst, min arrival)
        let mut injected = 0usize;
        for i in 0..n {
            let src = rng.gen_range(0usize..4);
            let dst = rng.gen_range(0usize..4);
            let flits = rng.gen_range(1u64..6);
            let when = rng.gen_range(0u64..100);
            let hops = hops(src, dst);
            mesh.send_on(Plane::Fast, when, NodeId(src), NodeId(dst), flits, i);
            let min = if hops == 0 {
                when + 1
            } else {
                when + hops * (3 + 1) + (flits - 1)
            };
            mins.push((dst, min));
            injected += 1;
        }
        // Drain everything far in the future.
        let mut got = 0usize;
        for node in 0..4 {
            for payload in drain(&mut mesh, NodeId(node), u64::MAX) {
                let (dst, _) = mins[payload];
                assert_eq!(dst, node, "packet {payload} at wrong node");
                got += 1;
            }
        }
        assert_eq!(got, injected, "conservation violated");
        assert_eq!(mesh.next_arrival(), None);
    }
}

/// Polling at each packet's minimum arrival time never yields it early.
#[test]
fn no_early_delivery() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let src = rng.gen_range(0usize..4);
        let dst = rng.gen_range(0usize..4);
        let flits = rng.gen_range(1u64..6);
        let when = rng.gen_range(0u64..50);
        let mut mesh: Mesh<u8> = Mesh::new(MeshConfig::paper());
        let hops = hops(src, dst);
        mesh.send_on(Plane::Fast, when, NodeId(src), NodeId(dst), flits, 1);
        let min = if hops == 0 {
            when + 1
        } else {
            when + hops * 4 + (flits - 1)
        };
        if min > 0 {
            assert!(
                drain(&mut mesh, NodeId(dst), min - 1).is_empty(),
                "delivered early"
            );
        }
        assert_eq!(drain(&mut mesh, NodeId(dst), min), vec![1]);
    }
}

/// Flit-hop accounting equals flits x hops summed over packets.
#[test]
fn flit_hop_accounting() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let n = rng.gen_range(1usize..60);
        let mut mesh: Mesh<()> = Mesh::new(MeshConfig::paper());
        let mut expected = 0u64;
        for _ in 0..n {
            let src = rng.gen_range(0usize..4);
            let dst = rng.gen_range(0usize..4);
            let flits = rng.gen_range(1u64..6);
            expected += flits * hops(src, dst);
            mesh.send_on(Plane::Fast, 0, NodeId(src), NodeId(dst), flits, ());
        }
        assert_eq!(mesh.stats().flit_hops, expected);
    }
}

/// Back-to-back packets on one link are delivered in FIFO order with
/// at least the serialization gap between them.
#[test]
fn same_link_serialization() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let flits = rng.gen_range(1u64..6);
        let count = rng.gen_range(2usize..10);
        let mut mesh: Mesh<usize> = Mesh::new(MeshConfig::paper());
        for i in 0..count {
            mesh.send_on(Plane::Fast, 0, NodeId(0), NodeId(1), flits, i);
        }
        let mut last_arrival = 0u64;
        let mut seen = 0usize;
        for t in 0..1000u64 {
            for p in drain(&mut mesh, NodeId(1), t) {
                assert_eq!(p, seen, "FIFO order violated");
                if seen > 0 {
                    assert!(
                        t >= last_arrival + flits,
                        "packets overlapped on the link: {t} after {last_arrival}"
                    );
                }
                last_arrival = t;
                seen += 1;
            }
        }
        assert_eq!(seen, count);
    }
}

/// A brute-force shadow of the mesh's delivery queues: per node, every
/// packet in flight as `(arrival, send sequence, payload)`.
struct ShadowQueues {
    nodes: Vec<Vec<(u64, u64, u32)>>,
    seq: u64,
}

impl ShadowQueues {
    fn push(&mut self, dst: NodeId, arrival: u64, payload: u32) {
        self.seq += 1;
        self.nodes[dst.0].push((arrival, self.seq, payload));
    }

    /// Index of `node`'s next packet: earliest arrival, ties in send order.
    fn front(&self, node: usize) -> Option<usize> {
        let q = &self.nodes[node];
        (0..q.len()).min_by_key(|&i| (q[i].0, q[i].1))
    }

    fn pop_arrived(&mut self, node: NodeId, now: u64) -> Option<u32> {
        let i = self.front(node.0)?;
        (self.nodes[node.0][i].0 <= now).then(|| self.nodes[node.0].remove(i).2)
    }

    fn next_arrival(&self) -> Option<u64> {
        (0..self.nodes.len())
            .filter_map(|n| self.front(n).map(|i| self.nodes[n][i].0))
            .min()
    }
}

/// Interleaved sends and pops against the shadow model, on both planes of
/// a heterogeneous mesh and on a homogeneous one: after every operation
/// `next_arrival` is the shadow's earliest front, and every pop returns
/// the shadow's next payload at that node.
#[test]
fn interleaved_sends_and_pops_match_a_shadow_model() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let heterogeneous = case % 2 == 0;
        let config = MeshConfig::paper();
        let mut mesh: Mesh<u32> = if heterogeneous {
            Mesh::new_heterogeneous(config, LowPowerPlane::default())
        } else {
            Mesh::new(config)
        };
        let mut shadow = ShadowQueues {
            nodes: vec![Vec::new(); config.nodes()],
            seq: 0,
        };
        let (mut now, mut popped) = (0u64, 0usize);
        for payload in 0..300u32 {
            if rng.gen_bool(0.55) {
                // Sends at the current cycle or in the future (a bank's
                // delayed reply, a deprioritized training fetch).
                let plane = if rng.gen_bool(0.4) {
                    Plane::LowPower
                } else {
                    Plane::Fast
                };
                let at = now + rng.gen_range(0u64..30) * u64::from(rng.gen_bool(0.3));
                let src = NodeId(rng.gen_range(0usize..4));
                let dst = NodeId(rng.gen_range(0usize..4));
                let flits = rng.gen_range(1u64..6);
                // The mesh's timing sets the arrival; the shadow checks
                // the order and the due time packets come out at.
                let before = mesh.stats().total_latency;
                mesh.send_on(plane, at, src, dst, flits, payload);
                shadow.push(dst, at + mesh.stats().total_latency - before, payload);
            } else {
                now += rng.gen_range(0u64..12);
                let node = NodeId(rng.gen_range(0usize..4));
                let got = mesh.pop_arrived(node, now);
                let want = shadow.pop_arrived(node, now);
                assert_eq!(got, want, "case {case}: pop at {node}, cycle {now}");
                popped += usize::from(got.is_some());
            }
            assert_eq!(
                mesh.next_arrival(),
                shadow.next_arrival(),
                "case {case}: next arrival after op {payload}"
            );
        }
        assert!(popped > 0, "case {case}: nothing was delivered");
    }
}
