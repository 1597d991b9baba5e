//! The workspace's one shortest-path implementation: an all-pairs table of
//! hop distances and first hops, computed once per [`Topology`] (see
//! [`Topology::shortest_paths`]) and shared by placement, routing and the
//! packet driver.

use crate::graph::{NodeId, Topology};
use std::collections::VecDeque;
use std::fmt;

/// Marks an unreachable pair in both columns of the table.
const NONE: u32 = u32::MAX;

/// Hop distance and first hop of a shortest path for every ordered pair of
/// switches, in flat `from * n + to` arrays.
///
/// **Tie-break.** Among several shortest paths, the table keeps the one a
/// BFS from the source reaches first when it scans out-links in insertion
/// order: the lexicographically smallest shortest path in adjacency order.
/// Equivalently, the first hop from `u` towards `t` is the first
/// out-neighbour of `u` strictly closer to `t`. Every suffix of such a path
/// is again the smallest one, so walking first hops switch by switch
/// reproduces the source's path.
#[derive(Clone)]
pub struct ShortestPaths {
    n: usize,
    /// `dist[from * n + to]`: hop count, [`NONE`] when unreachable.
    dist: Vec<u32>,
    /// `first_hop[from * n + to]`: the next switch on the path, [`NONE`]
    /// when unreachable or `from == to`.
    first_hop: Vec<u32>,
}

impl ShortestPaths {
    /// Compute the table with one BFS per source switch.
    pub(crate) fn compute(topology: &Topology) -> ShortestPaths {
        let n = topology.num_nodes();
        let mut dist = vec![NONE; n * n];
        let mut first_hop = vec![NONE; n * n];
        let mut queue = VecDeque::new();
        for s in 0..n {
            let row = s * n;
            dist[row + s] = 0;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &(v, _) in topology.neighbors(NodeId(u)) {
                    if dist[row + v.0] == NONE {
                        dist[row + v.0] = dist[row + u] + 1;
                        first_hop[row + v.0] = if u == s {
                            v.0 as u32
                        } else {
                            first_hop[row + u]
                        };
                        queue.push_back(v.0);
                    }
                }
            }
        }
        ShortestPaths { n, dist, first_hop }
    }

    /// Hop distance of the shortest path, if `to` is reachable from `from`.
    #[inline]
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        match self.dist[from.0 * self.n + to.0] {
            NONE => None,
            d => Some(d as usize),
        }
    }

    /// Shortest path that visits `waypoints` in order, starting at `from`
    /// and ending at `to`: the concatenation of per-leg shortest paths,
    /// each walked along first hops. `None` when a leg is unreachable.
    pub fn path_through(
        &self,
        from: NodeId,
        waypoints: &[NodeId],
        to: NodeId,
    ) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        let mut at = from;
        for &stop in waypoints.iter().chain([&to]) {
            path.reserve(self.distance(at, stop)?);
            while at != stop {
                at = NodeId(self.first_hop[at.0 * self.n + stop.0] as usize);
                path.push(at);
            }
        }
        Some(path)
    }
}

impl fmt::Debug for ShortestPaths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShortestPaths")
            .field("switches", &self.n)
            .finish_non_exhaustive()
    }
}
