//! Input generation: everything the program sees is made here from the
//! workload seed, before it is handed over through the public APIs.

use snap_apps as apps;
use snap_lang::{Field, Packet, Policy, Value};
use snap_topology::{PortId, TrafficMatrix};
use std::time::Duration;

/// Total gravity volume; it shapes the matrix (and so placement and
/// routing), not the offered packet rate.
pub const TRAFFIC_VOLUME: f64 = 10_000.0;

/// Keeps the packet stream independent of other draws from the same seed.
const TRAFFIC_STREAM: u64 = 0x7aff_1c00;

/// SplitMix64: small, fast and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The measured pipeline at detection threshold `t`:
/// `port_monitoring ; dns_tunnel_detect(t) ; heavy_hitter_detection(50+t) ;
/// assign_egress(P)`. Threshold changes keep the packet-state mapping, so
/// every update is placement-stable and no packet is ever dropped.
pub fn pipeline(t: i64, egress_ports: usize) -> Policy {
    apps::port_monitoring()
        .seq(apps::dns_tunnel_detect(t))
        .seq(apps::heavy_hitter_detection(50 + t))
        .seq(apps::assign_egress(egress_ports))
}

/// Gravity-weighted `(src, dst)` port pairs, restricted to destinations
/// `1..=P` that the pipeline routes.
pub struct Sampler {
    pairs: Vec<(PortId, PortId)>,
    cumulative: Vec<f64>,
    total: f64,
}

impl Sampler {
    pub fn new(matrix: &TrafficMatrix, egress_ports: usize) -> Sampler {
        let mut pairs = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for (src, dst, demand) in matrix.iter() {
            if demand > 0.0 && (1..=egress_ports).contains(&dst.0) {
                total += demand;
                pairs.push((src, dst));
                cumulative.push(total);
            }
        }
        assert!(!pairs.is_empty(), "gravity matrix has no routable demand");
        Sampler {
            pairs,
            cumulative,
            total,
        }
    }

    fn sample(&self, rng: &mut Rng) -> (PortId, PortId) {
        let x = rng.next_f64() * self.total;
        let at = self.cumulative.partition_point(|&c| c < x);
        self.pairs[at.min(self.pairs.len() - 1)]
    }
}

/// One packet with every field the pipeline tests. One in seven is a DNS
/// response and one in three a SYN; host octets vary so the state tables
/// see many keys.
fn make_packet(src: PortId, dst: PortId, k: u64, host: u8) -> Packet {
    let dns = k.is_multiple_of(7);
    Packet::new()
        .with(Field::InPort, src.0 as i64)
        .with(Field::SrcIp, Value::ip(10, 0, src.0 as u8, host))
        .with(
            Field::DstIp,
            Value::ip(10, 0, dst.0 as u8, host.wrapping_add(1)),
        )
        .with(
            Field::SrcPort,
            if dns { 53 } else { 40_000 + (k % 1000) as i64 },
        )
        .with(Field::DstPort, 443)
        .with(Field::Proto, if dns { 17 } else { 6 })
        .with(
            Field::TcpFlags,
            Value::sym(if k.is_multiple_of(3) { "SYN" } else { "ACK" }),
        )
        .with(Field::DnsRdata, Value::ip(93, 184, 216, host))
}

/// The packet stream of one run: a deterministic function of the seed.
pub struct Traffic {
    sampler: Sampler,
    rng: Rng,
    k: u64,
}

/// One batch: `(ingress port, packet)` pairs and each packet's expected
/// egress port (its destination subnet).
pub struct Batch {
    pub packets: Vec<(PortId, Packet)>,
    pub expected: Vec<PortId>,
}

impl Traffic {
    pub fn new(sampler: Sampler, seed: u64) -> Traffic {
        Traffic {
            sampler,
            rng: Rng::new(seed ^ TRAFFIC_STREAM),
            k: 0,
        }
    }

    pub fn next_batch(&mut self, size: usize) -> Batch {
        let mut packets = Vec::with_capacity(size);
        let mut expected = Vec::with_capacity(size);
        for _ in 0..size {
            let (src, dst) = self.sampler.sample(&mut self.rng);
            let host = (self.rng.next_u64() % 200) as u8;
            self.k += 1;
            packets.push((src, make_packet(src, dst, self.k, host)));
            expected.push(dst);
        }
        Batch { packets, expected }
    }
}

/// What an update changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A policy whose threshold is in the pre-warmed working set.
    Flip,
    /// A policy with a threshold never used before in the run.
    Edit,
    /// A traffic-matrix change (`update_traffic`, reseeded gravity).
    Reroute,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Flip, Kind::Edit, Kind::Reroute];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Flip => "flip",
            Kind::Edit => "edit",
            Kind::Reroute => "reroute",
        }
    }
}

/// One scheduled update of the open-loop generator.
#[derive(Clone, Debug)]
pub struct Planned {
    pub kind: Kind,
    /// When it is due, from the start of the update phase.
    pub due: Duration,
    /// The pipeline threshold (flips and edits).
    pub threshold: i64,
    /// The gravity seed of the new matrix (reroutes).
    pub traffic_seed: u64,
}

/// The five pre-warmed thresholds; the first is the bootstrap policy's.
pub fn working_set(seed: u64) -> [i64; 5] {
    let base = 3 + (seed % 5) as i64;
    [base, base + 1, base + 2, base + 3, base + 4]
}

/// A stretch of the update schedule: `slots` (each slot's kind and the
/// gap to the next slot, in ms) repeated `rounds` times.
pub struct Segment {
    pub slots: &'static [(Kind, u64)],
    pub rounds: usize,
}

/// The update schedule: the segments in order, each with its rounds
/// scaled by `scale` (at least one). Kinds and due times are the same for
/// every seed, and flips visit the working set in rotation; the seed sets
/// the thresholds and the rerouted matrices.
pub fn schedule(segments: &[Segment], scale: f64, seed: u64) -> Vec<Planned> {
    let ws = working_set(seed);
    let mut next_flip = 1;
    let mut current = ws[0];
    let mut at = 0u64;
    let mut edits = 0i64;
    let mut reroutes = 0u64;
    let mut plan = Vec::new();
    let slots = segments.iter().flat_map(|seg| {
        let rounds = ((seg.rounds as f64 * scale).round() as usize).max(1);
        std::iter::repeat_n(seg.slots, rounds).flatten()
    });
    for &(kind, gap_ms) in slots {
        let mut planned = Planned {
            kind,
            due: Duration::from_millis(at),
            threshold: current,
            traffic_seed: 0,
        };
        match kind {
            Kind::Flip => {
                current = ws[next_flip % ws.len()];
                next_flip += 1;
                planned.threshold = current;
            }
            Kind::Edit => {
                edits += 1;
                current = 1000 + edits;
                planned.threshold = current;
            }
            Kind::Reroute => {
                reroutes += 1;
                planned.traffic_seed = seed.wrapping_mul(31).wrapping_add(reroutes);
            }
        }
        plan.push(planned);
        at += gap_ms;
    }
    plan
}
