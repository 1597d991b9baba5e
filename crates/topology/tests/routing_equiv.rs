//! The all-pairs shortest-path table must answer every query exactly as
//! the per-call BFS it replaced: same hop counts, same path among ties, and
//! the same waypoint concatenations (waypoints equal to an endpoint
//! included), on every topology the workspace generates plus hand-built
//! one-way, disconnected and random multigraph cases.

mod bfs_reference;

use bfs_reference as bfs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_topology::generators::presets;
use snap_topology::{campus, igen_topology, random_topology, NodeId, Topology};

fn assert_matches_reference(topo: &Topology) {
    let n = topo.num_nodes();
    for a in topo.nodes() {
        for b in topo.nodes() {
            let want = bfs::shortest_path(topo, a, b);
            assert_eq!(
                topo.shortest_path(a, b),
                want,
                "{}: path {a:?}->{b:?}",
                topo.name
            );
            assert_eq!(
                topo.distance(a, b),
                bfs::distance(topo, a, b),
                "{}: distance {a:?}->{b:?}",
                topo.name
            );
            let mid = NodeId((a.0 * 7 + b.0 * 3 + 1) % n);
            let waypoint_sets: [&[NodeId]; 7] =
                [&[], &[a], &[b], &[a, b], &[b, a], &[mid], &[mid, a, mid]];
            for waypoints in waypoint_sets {
                assert_eq!(
                    topo.path_through(a, waypoints, b),
                    bfs::path_through(topo, a, waypoints, b),
                    "{}: path {a:?}->{b:?} via {waypoints:?}",
                    topo.name
                );
            }
        }
    }
}

#[test]
fn campus_matches_bfs() {
    assert_matches_reference(&campus());
}

#[test]
fn table5_presets_match_bfs() {
    for spec in presets::table5() {
        assert_matches_reference(&random_topology(&spec));
    }
}

#[test]
fn igen_topologies_match_bfs() {
    for n in [2, 24, 50, 100] {
        assert_matches_reference(&igen_topology(n, 7));
    }
}

#[test]
fn one_way_graph_matches_bfs() {
    // A directed ring with one-way shortcuts and a parallel link: distances
    // are asymmetric and several shortest paths tie.
    let mut t = Topology::new("one-way");
    let n: Vec<NodeId> = (0..7).map(|i| t.add_node(format!("s{i}"))).collect();
    for i in 0..7 {
        t.add_link(n[i], n[(i + 1) % 7], 10.0);
    }
    t.add_link(n[0], n[3], 10.0);
    t.add_link(n[5], n[2], 10.0);
    t.add_link(n[1], n[2], 5.0);
    t.add_link(n[4], n[0], 10.0);
    assert_ne!(t.distance(n[0], n[3]), t.distance(n[3], n[0]));
    assert_matches_reference(&t);
}

#[test]
fn disconnected_graph_matches_bfs() {
    // Two components plus an isolated switch and a one-way bridge.
    let mut t = Topology::new("disconnected");
    let n: Vec<NodeId> = (0..7).map(|i| t.add_node(format!("s{i}"))).collect();
    t.add_bidi_link(n[0], n[1], 10.0);
    t.add_bidi_link(n[1], n[2], 10.0);
    t.add_bidi_link(n[3], n[4], 10.0);
    t.add_bidi_link(n[4], n[5], 10.0);
    t.add_link(n[2], n[3], 10.0);
    assert_eq!(t.distance(n[0], n[6]), None);
    assert_eq!(t.distance(n[5], n[0]), None);
    assert_matches_reference(&t);
}

#[test]
fn random_directed_multigraphs_match_bfs() {
    let mut rng = StdRng::seed_from_u64(12);
    for case in 0..40 {
        let nodes: usize = rng.gen_range(1..16);
        let mut t = Topology::new(format!("random-{case}"));
        let n: Vec<NodeId> = (0..nodes).map(|i| t.add_node(format!("s{i}"))).collect();
        for _ in 0..rng.gen_range(0..3 * nodes) {
            // Self-loops and parallel links included.
            let (a, b) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            t.add_link(n[a], n[b], 10.0);
        }
        assert_matches_reference(&t);
    }
}
