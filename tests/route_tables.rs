//! The up*/down* route tables of faulty systems (Sec. VI-B, Fig. 11), pinned
//! from outside the implementation: full-table digests that any rewrite of
//! `RouteTables` must reproduce entry for entry, explicit unreachability
//! across regions and across the components of a split region, and the
//! table's memory formula.

use std::sync::Arc;
use upp_noc::ids::{NodeId, Port};
use upp_noc::routing::{trace_route, ChipletRouting, RouteTables};
use upp_noc::topology::{chiplet::inject_random_faults, ChipletSystemSpec, Region, Topology};

/// The topology `build_system` routes over: `spec.build(seed)` with
/// `faults` random mesh links failed under `seed + 1`.
fn faulty(spec: &ChipletSystemSpec, faults: usize, seed: u64) -> Topology {
    let mut topo = spec.build(seed).unwrap();
    inject_random_faults(&mut topo, faults, seed + 1).unwrap();
    topo
}

/// FNV-1a 64 over one byte per `(node, in_port, target)` triple — the
/// port index `next_port` answers, `0xFF` for `None` — and the number of
/// `Some` answers.
fn table_digest(topo: &Topology, tables: &RouteTables) -> (u64, usize) {
    let n = topo.num_nodes() as u32;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut some = 0;
    for node in 0..n {
        for p in Port::ALL {
            for target in 0..n {
                let byte = match tables.next_port(NodeId(node), p, NodeId(target)) {
                    Some(out) => {
                        some += 1;
                        out.index() as u8
                    }
                    None => 0xFF,
                };
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (hash, some)
}

fn assert_digest(spec: &ChipletSystemSpec, faults: usize, seed: u64, want: (u64, usize)) {
    let topo = faulty(spec, faults, seed);
    let got = table_digest(&topo, &RouteTables::build(&topo));
    assert_eq!(
        got, want,
        "digest {:016x} over {} routable triples, pinned {:016x} over {}",
        got.0, got.1, want.0, want.1
    );
}

// The three digests below were derived with the hash-map tables of PR 15
// (commit 6b5ffa6), before the dense tables replaced them.

#[test]
fn baseline_table_digest_is_pinned() {
    let spec = ChipletSystemSpec::baseline();
    assert_digest(&spec, 12, 2022, (0x0874_a62d_2293_89da, 6_064));
}

#[test]
fn grid4_table_digest_is_pinned() {
    let spec = ChipletSystemSpec::grid(4, 4).unwrap();
    assert_digest(&spec, 8, 5, (0x5e64_2984_f11e_c828, 41_561));
}

/// 1,280 routers, 11.5 M triples: under a second even unoptimised.
#[test]
fn grid8_table_digest_is_pinned() {
    let spec = ChipletSystemSpec::grid(8, 8).unwrap();
    assert_digest(&spec, 16, 2022, (0x60a0_7932_bc36_a709, 431_763));
}

#[test]
fn other_regions_are_unreachable_not_a_neighbouring_block() {
    let topo = faulty(&ChipletSystemSpec::baseline(), 12, 2022);
    let tables = RouteTables::build(&topo);
    // Every ordered pair, so also the neighbours across each block boundary
    // (last router of a chiplet, first of the next region).
    for a in topo.nodes() {
        for b in topo.nodes().iter().filter(|b| b.region != a.region) {
            for p in Port::ALL {
                assert_eq!(
                    tables.next_port(a.id, p, b.id),
                    None,
                    "{} (in {p}) -> {}",
                    a.id,
                    b.id
                );
            }
        }
    }
}

#[test]
fn a_split_region_routes_inside_each_component_only() {
    let mut topo = ChipletSystemSpec::baseline().build(0).unwrap();
    // Cut chiplet 0 (4x4, row-major) between its columns 1 and 2 by hand;
    // `inject_random_faults` would refuse, `set_link_faulty` does not ask.
    let routers = topo.chiplets()[0].routers.clone();
    for y in 0..4 {
        topo.set_link_faulty(routers[y * 4 + 1], Port::East);
    }
    assert!(topo.validate().is_err(), "the cut disconnects the chiplet");
    let tables = Arc::new(RouteTables::build(&topo));
    // `trace_route` panics on a missing table entry or a livelock.
    let routing = ChipletRouting::with_tables(Arc::clone(&tables));
    let left = |n: NodeId| topo.node(n).x < 2;
    for &a in &routers {
        for &b in &routers {
            if left(a) == left(b) {
                trace_route(&topo, &routing, a, b);
            } else {
                for p in Port::ALL {
                    assert_eq!(tables.next_port(a, p, b), None, "{a} (in {p}) -> {b}");
                }
            }
        }
    }
    // The other regions are whole.
    let other = &topo.chiplets()[1].routers;
    trace_route(&topo, &routing, other[0], other[15]);
    let interposer = topo.interposer_routers();
    trace_route(&topo, &routing, interposer[0], interposer[15]);
}

#[test]
fn every_node_has_a_level_and_no_other_id_does() {
    let topo = faulty(&ChipletSystemSpec::baseline(), 12, 2022);
    let tables = RouteTables::build(&topo);
    let n = topo.num_nodes() as u32;
    for id in 0..n {
        assert!(tables.level(NodeId(id)).is_some(), "node {id}");
    }
    assert_eq!(tables.level(NodeId(n)), None);
    assert_eq!(tables.level(NodeId(u32::MAX)), None);
    // An id past the table is unreachable, not an index out of a block.
    assert_eq!(tables.next_port(NodeId(0), Port::Local, NodeId(n)), None);
    assert_eq!(tables.next_port(NodeId(n), Port::Local, NodeId(0)), None);
}

#[test]
fn table_memory_is_seven_bytes_per_same_region_pair() {
    for spec in [
        ChipletSystemSpec::baseline(),
        ChipletSystemSpec::grid(4, 4).unwrap(),
    ] {
        let topo = spec.build(0).unwrap();
        let mut sizes: Vec<usize> = topo.chiplets().iter().map(|c| c.routers.len()).collect();
        sizes.push(topo.region_nodes(Region::Interposer).len());
        let blocks: usize = sizes.iter().map(|s| Port::COUNT * s * s).sum();
        assert_eq!(
            RouteTables::build(&topo).mem_bytes(),
            blocks + topo.num_nodes() * RouteTables::PER_NODE_BYTES
        );
    }
}
