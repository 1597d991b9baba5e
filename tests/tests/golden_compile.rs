//! Golden placements and utilizations of the soak pipeline, pinned from the
//! compiler as it stood when every shortest-path query ran its own BFS.
//! Placement and routing must not move when the queries are answered from
//! the topology's all-pairs table, and every routed path must equal the
//! reference BFS concatenation through its waypoints.

#[path = "../../crates/topology/tests/bfs_reference/mod.rs"]
mod bfs_reference;

use snap_apps as apps;
use snap_core::{Compiled, Compiler, SolverChoice};
use snap_lang::Policy;
use snap_topology::{campus, igen_topology, NodeId, Topology, TrafficMatrix};

/// The soak's churned pipeline at its first threshold.
fn soak_pipeline(egress_ports: usize) -> Policy {
    apps::port_monitoring()
        .seq(apps::dns_tunnel_detect(3))
        .seq(apps::heavy_hitter_detection(50))
        .seq(apps::assign_egress(egress_ports))
}

/// One pinned compile or reroute result: the switch of every state
/// variable, then the total and maximum link utilization.
struct Golden {
    placement: [(&'static str, &'static str); 6],
    total_utilization: f64,
    max_utilization: f64,
}

fn check(topo: &Topology, compiled: &Compiled, golden: &Golden, what: &str) {
    let placement: Vec<(String, &str)> = compiled
        .placement
        .placement
        .iter()
        .map(|(var, &node)| (var.to_string(), topo.node_name(node)))
        .collect();
    let want: Vec<(String, &str)> = golden
        .placement
        .iter()
        .map(|&(var, node)| (var.to_string(), node))
        .collect();
    assert_eq!(placement, want, "{what}: placement");
    assert_eq!(
        compiled.placement.total_utilization, golden.total_utilization,
        "{what}: total utilization"
    );
    assert_eq!(
        compiled.placement.max_utilization, golden.max_utilization,
        "{what}: max utilization"
    );

    // Every path is the reference BFS path through its flow's waypoints:
    // the switches of the state it needs, in dependency order.
    let order = compiled.deps.var_order();
    assert!(!compiled.placement.paths.is_empty(), "{what}: no paths");
    for (&(u, v), path) in &compiled.placement.paths {
        let mut needed: Vec<_> = compiled.mapping.vars_for(u, v).into_iter().collect();
        needed.sort_by_key(|s| order.rank(s));
        let mut waypoints: Vec<NodeId> = Vec::new();
        for var in &needed {
            let node = compiled.placement.placement[var];
            if waypoints.last() != Some(&node) {
                waypoints.push(node);
            }
        }
        let (src, dst) = (topo.port_switch(u).unwrap(), topo.port_switch(v).unwrap());
        assert_eq!(
            Some(path),
            bfs_reference::path_through(topo, src, &waypoints, dst).as_ref(),
            "{what}: path {u:?}->{v:?}"
        );
    }
}

/// Compile the soak pipeline under a gravity matrix (seed 7), reroute it
/// under a reseeded one (seed 8) and compare both against their goldens.
fn compile_and_reroute(topo: Topology, compile: Golden, reroute: Golden) {
    let egress_ports = topo.num_external_ports();
    let tm = TrafficMatrix::gravity(&topo, 1000.0, 7);
    let compiler = Compiler::new(topo.clone(), tm).with_solver(SolverChoice::Heuristic);
    let compiled = compiler
        .compile(&soak_pipeline(egress_ports))
        .expect("the soak pipeline compiles");
    check(
        &topo,
        &compiled,
        &compile,
        &format!("{} compile", topo.name),
    );
    let (rerouted, _) = compiler.reroute(&compiled, &TrafficMatrix::gravity(&topo, 1000.0, 8));
    check(
        &topo,
        &rerouted,
        &reroute,
        &format!("{} reroute", topo.name),
    );
}

#[test]
fn campus_soak_pipeline_golden() {
    let placement = [
        ("blacklist", "D4"),
        ("count", "C3"),
        ("heavy-hitter", "C3"),
        ("hh-counter", "C3"),
        ("orphan", "C3"),
        ("susp-client", "C3"),
    ];
    compile_and_reroute(
        campus(),
        Golden {
            placement,
            total_utilization: 3.0326435375686747,
            max_utilization: 0.3486100675681036,
        },
        Golden {
            placement,
            total_utilization: 3.0117839779422817,
            max_utilization: 0.28812566039826565,
        },
    );
}

#[test]
fn igen_24_soak_pipeline_golden() {
    let placement = [
        ("blacklist", "s19"),
        ("count", "s1"),
        ("heavy-hitter", "s1"),
        ("hh-counter", "s1"),
        ("orphan", "s1"),
        ("susp-client", "s1"),
    ];
    compile_and_reroute(
        igen_topology(24, 7),
        Golden {
            placement,
            total_utilization: 3.9867505457955796,
            max_utilization: 0.3197947790740288,
        },
        Golden {
            placement,
            total_utilization: 3.989395336457528,
            max_utilization: 0.30738345262363087,
        },
    );
}

#[test]
fn igen_50_soak_pipeline_golden() {
    let placement = [
        ("blacklist", "s31"),
        ("count", "s1"),
        ("heavy-hitter", "s1"),
        ("hh-counter", "s1"),
        ("orphan", "s1"),
        ("susp-client", "s1"),
    ];
    compile_and_reroute(
        igen_topology(50, 7),
        Golden {
            placement,
            total_utilization: 4.865872347887607,
            max_utilization: 0.3401455691909438,
        },
        Golden {
            placement,
            total_utilization: 4.877012289561217,
            max_utilization: 0.32673463197047353,
        },
    );
}
