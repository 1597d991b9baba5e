//! Placement on a topology where no switch reaches the others.
//!
//! With no demand constraining a state variable, placement picks the most
//! central switch. Ranking candidates by a hop sum that charged a huge
//! constant per unreachable switch overflowed once a candidate missed three
//! or more others: a panic in debug builds, a silently wrapped ranking in
//! release. Candidates now rank on (unreachable count, hop sum).

use snap_core::{Compiler, SolverChoice};
use snap_lang::builder::*;
use snap_lang::{Field, Value};
use snap_topology::{PortId, Topology, TrafficMatrix};

fn isolated_switches(n: usize) -> Topology {
    let mut t = Topology::new("isolated");
    for i in 0..n {
        let s = t.add_node(format!("s{i}"));
        t.add_external_port(PortId(i + 1), s);
    }
    t
}

#[test]
fn unconstrained_state_on_isolated_switches_compiles() {
    let topo = isolated_switches(4);
    let policy =
        state_incr("c", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(1)));
    for solver in [SolverChoice::Heuristic, SolverChoice::Auto] {
        let compiler = Compiler::new(topo.clone(), TrafficMatrix::new()).with_solver(solver);
        let compiled = compiler.compile(&policy).expect("compiles");
        // Every candidate misses the same three switches, so the hop-sum
        // tie goes to the first switch.
        let placed: Vec<_> = compiled.placement.placement.values().copied().collect();
        assert_eq!(placed, vec![topo.node_by_name("s0").unwrap()]);
    }
}

#[test]
fn unconstrained_state_prefers_the_switch_reaching_the_most_others() {
    // s0 and s1 are isolated; s2 -> s3 -> s4 is a one-way chain, so s2
    // reaches two switches, s3 one, s4 none.
    let mut topo = isolated_switches(5);
    let n: Vec<_> = topo.nodes().collect();
    topo.add_link(n[2], n[3], 10.0);
    topo.add_link(n[3], n[4], 10.0);
    let policy =
        state_incr("c", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(1)));
    let compiler =
        Compiler::new(topo.clone(), TrafficMatrix::new()).with_solver(SolverChoice::Heuristic);
    let compiled = compiler.compile(&policy).expect("compiles");
    let placed: Vec<_> = compiled.placement.placement.values().copied().collect();
    assert_eq!(placed, vec![n[2]]);
}
