//! Property-based tests for the mesh NoC: delivery guarantees, latency
//! lower bounds and conservation of packets. Driven by deterministic
//! seeded-PRNG case loops.

use lva_core::Rng64;
use lva_noc::{Mesh, MeshConfig, NodeId};

const CASES: u64 = 256;

fn rng_for(test_seed: u64, case: u64) -> Rng64 {
    Rng64::new(test_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
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
            let hops = mesh.hop_count(NodeId(src), NodeId(dst));
            mesh.send(when, NodeId(src), NodeId(dst), flits, i);
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
        let hops = mesh.hop_count(NodeId(src), NodeId(dst));
        mesh.send(when, NodeId(src), NodeId(dst), flits, 1);
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
            expected += flits * mesh.hop_count(NodeId(src), NodeId(dst));
            mesh.send(0, NodeId(src), NodeId(dst), flits, ());
        }
        assert_eq!(mesh.stats().flit_hops, expected);
        assert_eq!(mesh.stats().packets, n as u64);
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
            mesh.send(0, NodeId(0), NodeId(1), flits, i);
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
