//! The per-call BFS that answered every shortest-path query before the
//! all-pairs table existed, kept verbatim as the reference the table must
//! reproduce: same hop counts, and the same path whenever several shortest
//! paths tie.

use snap_topology::{NodeId, Topology};
use std::collections::VecDeque;

/// Shortest path (minimum hop count) between two switches, including both
/// endpoints. Returns `None` when unreachable.
pub fn shortest_path(topo: &Topology, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; topo.num_nodes()];
    let mut seen = vec![false; topo.num_nodes()];
    let mut queue = VecDeque::from([from]);
    seen[from.0] = true;
    while let Some(n) = queue.pop_front() {
        for &(m, _) in topo.neighbors(n) {
            if !seen[m.0] {
                seen[m.0] = true;
                prev[m.0] = Some(n);
                if m == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = prev[cur.0] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(m);
            }
        }
    }
    None
}

/// Shortest path that visits `waypoints` in order, starting at `from` and
/// ending at `to`. Built by concatenating per-leg shortest paths.
pub fn path_through(
    topo: &Topology,
    from: NodeId,
    waypoints: &[NodeId],
    to: NodeId,
) -> Option<Vec<NodeId>> {
    let mut stops = Vec::with_capacity(waypoints.len() + 2);
    stops.push(from);
    stops.extend_from_slice(waypoints);
    stops.push(to);
    let mut path: Vec<NodeId> = vec![from];
    for pair in stops.windows(2) {
        let leg = shortest_path(topo, pair[0], pair[1])?;
        path.extend_from_slice(&leg[1..]);
    }
    Some(path)
}

/// Hop distance between two switches (`None` when unreachable).
#[allow(dead_code)] // not every test binary including this module asks for it
pub fn distance(topo: &Topology, from: NodeId, to: NodeId) -> Option<usize> {
    shortest_path(topo, from, to).map(|p| p.len() - 1)
}
