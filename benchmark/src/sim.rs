//! The simulator workloads: short passes of a fresh four-region cluster
//! under the deterministic `SimNet`, `Topology::exp1` one-way delays and
//! no cost model — zero transport and zero wire work.
//!
//! Built from public entry points only: `KeyStore::cluster`,
//! `Replica::new`, `Client::new`, `EzConfig`, `KvStore`, `Workload`,
//! `Topology::exp1` and `SimNet::{new, add_node, run_until_deliveries,
//! run_until_time, deliveries, stats, inspect}`.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use ezbft_core::{Client, EzConfig, Replica};
use ezbft_crypto::{CryptoKind, KeyStore};
use ezbft_kv::{KvOp, KvResponse, KvStore, Workload, WorkloadConfig};
use ezbft_simnet::{Region, SimConfig, SimNet, Topology};
use ezbft_smr::{
    AccessMode, Actions, ClientId, ClientNode, ClusterConfig, Command as _, Micros, NodeId,
    ProtocolNode, ReplicaId, TimerId, Timestamp,
};

use crate::proc;
use crate::timed::{KvMsg, Timed, TraceSink};

/// Virtual-time limit of one pass; requests not delivered by then fail.
pub const VIRTUAL_LIMIT: Micros = Micros::from_secs(300);
/// Event cap of one pass, far above a healthy pass (tens of thousands of
/// events): bounds the wall time a wedged, timer-spinning pass can burn.
const MAX_EVENTS: u64 = 5_000_000;
/// Virtual time granted after the last delivery for the replicas to
/// finish committing and executing before their states are compared.
const SETTLE: Micros = Micros::from_secs(2);
/// The share of a pass's requests by which the replicas' final state may
/// fall short before the gate fails (the same 1 % above which a failed
/// share is a sizing bug). Two defects of the seed commit stay below it
/// and are counted, not hidden (README, sizing finding 1): about one
/// contended pass in eighty ends with replicas one or two requests short
/// of final execution although every client was answered
/// ([`Pass::lagging_replicas`]), and about as many have one replica apply
/// two writes of the hot key in the opposite order to the others
/// ([`Pass::misordered_writes`]).
const TOLERATED_SHARE: f64 = 0.01;

/// The frozen parameters of one simulator workload.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// Workload name.
    pub name: &'static str,
    /// Authentication provider.
    pub crypto: CryptoKind,
    /// Clients in each of the four regions.
    pub clients_per_region: usize,
    /// Closed-loop requests per client per pass. Longer contended passes
    /// wedge (README, sizing finding 1), so passes stay short.
    pub requests_per_client: usize,
    /// Share of requests that write the one hot key, percent.
    pub contention_pct: u32,
    /// SPECORDER batch size.
    pub batch_size: usize,
    /// How long a leader holds an under-full batch open.
    pub batch_delay: Micros,
    /// Leader-collected commit (SPECACK → COMMITAGG + COMMITCONFIRM).
    pub commit_aggregation: bool,
    /// Aggregate-signature certificates (a size/shape shim, DESIGN.md §10).
    pub compact_certs: bool,
    /// Warm-up passes per set-up.
    pub warmup_passes: u64,
    /// Timed passes per second of `--seconds` (sized once at the seed
    /// commit so the timed phase lasts about `--seconds` there).
    pub passes_per_budget_second: f64,
}

impl SimSpec {
    /// Requests submitted in one pass.
    pub fn ops_per_pass(&self) -> u64 {
        (4 * self.clients_per_region * self.requests_per_client) as u64
    }
}

/// A client that submits its next workload operation the moment the
/// previous one is delivered.
pub(crate) struct ClosedLoop {
    inner: Timed<Client<KvOp, KvResponse>>,
    workload: Workload,
    remaining: usize,
}

impl ClosedLoop {
    fn pump(&mut self, out: &mut Actions<KvMsg, KvResponse>) {
        if self.remaining > 0 && !self.inner.in_flight() {
            self.remaining -= 1;
            let op = self.workload.next_op();
            self.inner.submit(op, out);
        }
    }
}

impl ProtocolNode for ClosedLoop {
    type Message = KvMsg;
    type Response = KvResponse;

    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn on_start(&mut self, out: &mut Actions<KvMsg, KvResponse>) {
        self.inner.on_start(out);
        self.pump(out);
    }
    fn on_message(&mut self, from: NodeId, msg: KvMsg, out: &mut Actions<KvMsg, KvResponse>) {
        self.inner.on_message(from, msg, out);
        self.pump(out);
    }
    fn on_timer(&mut self, id: TimerId, out: &mut Actions<KvMsg, KvResponse>) {
        self.inner.on_timer(id, out);
        self.pump(out);
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Requests the pass set out to complete.
    pub attempted: u64,
    /// Virtual latency of every delivered request, microseconds.
    pub lat_us: Vec<u64>,
    /// Delivered requests that took the fast path.
    pub fast: u64,
    /// Messages handed to the simulated network.
    pub msgs: u64,
    /// Wall time of the pass (construction, run, settle), nanoseconds.
    pub wall_ns: u64,
    /// Process CPU time of the same stretch, microseconds.
    pub cpu_us: u64,
    /// Wall time of `KeyStore::cluster` within the pass, nanoseconds.
    pub keygen_ns: u64,
    /// Σ `ReplicaStats::owner_changes`.
    pub owner_changes: u64,
    /// Σ `ClientStats::retries`.
    pub client_retries: u64,
    /// Replicas that had not finally executed every delivered request
    /// when the pass ended.
    pub lagging_replicas: u64,
    /// Conflicting writes that two replicas applied in different orders:
    /// the positions at which the worst pair's common writes differ.
    pub misordered_writes: u64,
    /// Findings of the correctness gate (empty when it passed).
    pub problems: Vec<String>,
}

impl Pass {
    /// Requests delivered within the virtual-time limit.
    pub fn delivered(&self) -> u64 {
        self.lat_us.len() as u64
    }
}

/// A boxed simulator node.
pub type SimNode = Box<dyn ProtocolNode<Message = KvMsg, Response = KvResponse>>;

/// Builds a fresh four-region simulation for `spec`: one replica per
/// region, `spec.clients_per_region` closed-loop clients beside each,
/// every client issuing `requests_per_client` operations drawn from
/// `workload`. All inputs derive from `seed`. `wrap` sees every node
/// before it is added (identity for the workloads; the layers pass taps
/// messages with it). Returns the simulation and the time spent in
/// `KeyStore::cluster`, nanoseconds.
pub fn build_sim(
    spec: &SimSpec,
    workload: WorkloadConfig,
    requests_per_client: usize,
    seed: u64,
    sink: Option<&Arc<TraceSink>>,
    wrap: impl Fn(SimNode) -> SimNode,
) -> (SimNet<KvMsg, KvResponse>, u64) {
    let cluster = ClusterConfig::for_faults(1);
    let mut cfg = EzConfig::new(cluster).with_batching(spec.batch_size, spec.batch_delay);
    cfg.commit_aggregation = spec.commit_aggregation;
    cfg.compact_certs = spec.compact_certs;

    // Replicas, then clients region by region.
    let client_count = 4 * spec.clients_per_region;
    let mut nodes: Vec<NodeId> = cluster.replicas().map(NodeId::Replica).collect();
    nodes.extend((0..client_count as u64).map(|c| NodeId::Client(ClientId::new(c))));
    let keygen_start = Instant::now();
    let mut stores = KeyStore::cluster(spec.crypto, &seed.to_le_bytes(), &nodes);
    let keygen_ns = keygen_start.elapsed().as_nanos() as u64;
    let client_stores = stores.split_off(cluster.n());

    let sim_cfg = SimConfig {
        seed,
        max_virtual_time: VIRTUAL_LIMIT,
        max_events: MAX_EVENTS,
    };
    let mut sim: SimNet<KvMsg, KvResponse> = SimNet::new(Topology::exp1(), sim_cfg);
    if let Some(sink) = sink {
        sink.clear();
    }
    for (rid, keys) in cluster.replicas().zip(stores) {
        let replica = Replica::new(rid, cfg, keys, KvStore::new());
        let node = match sink {
            None => Timed::plain(replica),
            Some(s) => Timed::traced(replica, s.register(format!("R{}", rid.index()))),
        };
        sim.add_node(Region(rid.index()), wrap(Box::new(node)));
    }
    for (index, keys) in (0..client_count as u64).zip(client_stores) {
        let region = index as usize / spec.clients_per_region;
        let client: Client<KvOp, KvResponse> = Client::new(
            ClientId::new(index),
            cfg,
            keys,
            ReplicaId::new(region as u8),
        );
        let inner = match sink {
            None => Timed::plain(client),
            Some(s) => Timed::traced(client, s.register(format!("c{index}"))),
        };
        sim.add_node(
            Region(region),
            wrap(Box::new(ClosedLoop {
                inner,
                workload: Workload::new(workload, index, seed),
                remaining: requests_per_client,
            })),
        );
    }
    (sim, keygen_ns)
}

/// The live cluster's configuration (MAC, batch 1, client-driven commit)
/// with one closed-loop client per region: what [`wan_replay`] runs.
const WAN_REPLAY: SimSpec = SimSpec {
    name: "wan_replay",
    crypto: CryptoKind::Mac,
    clients_per_region: 1,
    requests_per_client: 100,
    contention_pct: 0,
    batch_size: 1,
    batch_delay: Micros::ZERO,
    commit_aggregation: false,
    compact_certs: false,
    warmup_passes: 0,
    passes_per_budget_second: 0.0,
};

/// One pass of a live workload's operation mix under the simulator's WAN
/// model: where the live workloads' `lat_wan_mean_us` comes from.
pub fn wan_replay(workload: WorkloadConfig, seed: u64) -> Pass {
    run_pass_of(&WAN_REPLAY, workload, seed, None)
}

/// Runs one pass: a fresh cluster, `spec.requests_per_client` closed-loop
/// requests per client, every input derived from `seed`. With a `sink`,
/// every node records spans into it (the sink is cleared first).
pub fn run_pass(spec: &SimSpec, seed: u64, sink: Option<&Arc<TraceSink>>) -> Pass {
    let workload = WorkloadConfig::with_contention_pct(spec.contention_pct);
    run_pass_of(spec, workload, seed, sink)
}

fn run_pass_of(
    spec: &SimSpec,
    workload: WorkloadConfig,
    seed: u64,
    sink: Option<&Arc<TraceSink>>,
) -> Pass {
    let start = Instant::now();
    let cpu_before = proc::usage();
    let cluster = ClusterConfig::for_faults(1);
    let client_count = 4 * spec.clients_per_region;
    let (mut sim, keygen_ns) = build_sim(
        spec,
        workload,
        spec.requests_per_client,
        seed,
        sink,
        |node| node,
    );

    let attempted = spec.ops_per_pass();
    // Stops at the last delivery or at VIRTUAL_LIMIT, whichever is first.
    sim.run_until_deliveries(attempted as usize);
    let settle_until = Micros(sim.now().as_micros() + SETTLE.as_micros());
    sim.run_until_time(settle_until);
    let mut pass = Pass {
        attempted,
        keygen_ns,
        wall_ns: start.elapsed().as_nanos() as u64,
        cpu_us: proc::usage().since(&cpu_before).cpu_us,
        ..Pass::default()
    };

    // Closed-loop clients resubmit at the instant of delivery, so a
    // request's latency is the gap between its client's consecutive
    // completions (the first counts from time zero).
    let mut last: HashMap<NodeId, Micros> = HashMap::new();
    for d in sim.deliveries() {
        let prev = last.insert(d.client, d.at).unwrap_or(Micros::ZERO);
        pass.lat_us.push(d.at.saturating_sub(prev).as_micros());
        pass.fast += u64::from(d.delivery.fast_path);
    }
    pass.msgs = sim.stats().messages_sent;

    let replicas: Vec<&Replica<KvStore>> = cluster
        .replicas()
        .map(|rid| {
            sim.inspect(NodeId::Replica(rid))
                .and_then(|any| any.downcast_ref::<Timed<Replica<KvStore>>>())
                .expect("replica node is inspectable")
                .inner()
        })
        .collect();
    check_replicas(&replicas, &mut pass);
    for index in 0..client_count as u64 {
        let client = sim
            .inspect(NodeId::Client(ClientId::new(index)))
            .and_then(|any| any.downcast_ref::<ClosedLoop>())
            .expect("client node is inspectable");
        pass.client_retries += client.inner.inner().stats().retries;
    }
    pass
}

/// What a replica applied: the plain writes per conflict key in apply
/// order, and all requests as a set. Two plain writes of one key always
/// conflict (reads commute with each other, and only the replay of
/// `live_large` has any).
struct Applied {
    by_key: HashMap<u64, Vec<(ClientId, Timestamp)>>,
    all: BTreeSet<(ClientId, Timestamp)>,
}

/// The simulator's correctness gate over the replicas' final state; adds
/// its findings and counts to `pass`. No replica applied a request twice
/// or one nobody sent; replicas that applied the same set of requests hold
/// the same store; none is more than [`TOLERATED_SHARE`] short of the
/// delivered requests; no two replicas applied more than that share of the
/// conflicting writes they have in common in different orders (so a
/// lagging replica is checked on what it did apply).
fn check_replicas(replicas: &[&Replica<KvStore>], pass: &mut Pass) {
    let mut applied = Vec::new();
    for replica in replicas {
        let rid = replica.replica_id();
        pass.owner_changes += replica.stats().owner_changes;
        let log = replica.applied_log();
        let mut view = Applied {
            by_key: HashMap::new(),
            all: BTreeSet::new(),
        };
        let mut dropped = 0;
        for &at in log {
            let (Some(id), Some(cmd)) = (replica.request_id_of(at), replica.command_of(at)) else {
                dropped += 1;
                continue;
            };
            if !view.all.insert(id) {
                pass.problems
                    .push(format!("{rid:?} applied request {id:?} twice"));
            }
            for key in cmd.conflict_keys() {
                if key.mode == AccessMode::Write {
                    view.by_key.entry(key.key).or_default().push(id);
                }
            }
        }
        if dropped > 0 {
            pass.problems.push(format!(
                "{rid:?} no longer holds {dropped} of the entries it applied"
            ));
        }
        if log.len() as u64 > pass.attempted {
            pass.problems.push(format!(
                "{rid:?} applied {} of {} requests",
                log.len(),
                pass.attempted
            ));
        }
        let lag = pass.delivered().saturating_sub(log.len() as u64);
        pass.lagging_replicas += u64::from(lag > 0);
        if lag as f64 > TOLERATED_SHARE * pass.attempted as f64 {
            pass.problems.push(format!(
                "{rid:?} ended {lag} requests short of the {} delivered",
                pass.delivered()
            ));
        }
        applied.push((rid, view, replica.app().fingerprint()));
    }
    for (i, (a_id, a, a_print)) in applied.iter().enumerate() {
        for (b_id, b, b_print) in &applied[i + 1..] {
            if a.all == b.all && a_print != b_print {
                pass.problems.push(format!(
                    "{a_id:?} and {b_id:?} applied the same requests but hold different stores"
                ));
            }
            let mut misordered = 0;
            for (key, a_order) in &a.by_key {
                let Some(b_order) = b.by_key.get(key) else {
                    continue;
                };
                let in_a: HashSet<_> = a_order.iter().collect();
                let in_b: HashSet<_> = b_order.iter().collect();
                let a_common = a_order.iter().filter(|id| in_b.contains(id));
                let b_common = b_order.iter().filter(|id| in_a.contains(id));
                misordered += a_common.zip(b_common).filter(|(x, y)| x != y).count() as u64;
            }
            pass.misordered_writes = pass.misordered_writes.max(misordered);
            if misordered as f64 > TOLERATED_SHARE * pass.attempted as f64 {
                pass.problems.push(format!(
                    "{a_id:?} and {b_id:?} applied {misordered} conflicting writes in different \
                     orders"
                ));
            }
        }
    }
}
