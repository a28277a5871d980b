//! The live workloads: a four-replica ezBFT cluster and two closed-loop
//! clients over TCP loopback, all in this process.
//!
//! Built from public entry points only: `KeyStore::cluster`,
//! `Replica::new`, `Client::new`, `EzConfig`, `KvStore`, `Workload`,
//! `AddressBook` and `NodeHandle::{spawn_with_listener, spawn_observed,
//! with_node, recv_delivery, shutdown}`.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ezbft_core::{Client, EzConfig, Replica};
use ezbft_crypto::{CryptoKind, KeyStore};
use ezbft_kv::{Key, KvOp, KvResponse, KvStore, Workload, WorkloadConfig};
use ezbft_obs::{MemRecorder, Recorder};
use ezbft_smr::{ClientId, ClientNode as _, ClusterConfig, NodeId, ReplicaId};
use ezbft_transport::{AddressBook, NodeHandle};

use crate::proc;
use crate::recorder::{NetCounters, NodeRecorder};
use crate::stats::{median, quantile_u64};
use crate::timed::{KvMsg, NodeTrace, Timed, TraceSink};

/// Closed-loop clients, one submitting thread each (= `nproc` on the
/// sizing sandbox). Client `i` uses replica `i` as its command-leader.
pub const CLIENTS: usize = 2;
/// Private keys per client (the `Workload` default): 0 % conflicts.
pub const KEYS_PER_CLIENT: u64 = 64;
/// Every live operation fails after this long without a delivery.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);
/// `ops_per_s` and `cpu_us_per_op` are medians over windows of this
/// length.
const WINDOW: Duration = Duration::from_secs(1);
/// How long a timed-out request is given to drain before its client is
/// declared wedged (a client may not submit while one is in flight).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The frozen parameters of one live workload.
#[derive(Clone, Copy, Debug)]
pub struct LiveSpec {
    /// Workload name.
    pub name: &'static str,
    /// `Put` value size in bytes.
    pub value_size: usize,
    /// Share of operations that are `Get`s (the rest are `Put`s).
    pub read_fraction: f64,
    /// Warm-up operations per set-up (after the key preload).
    pub warmup_ops: u64,
    /// Timed operations per second of `--seconds` (sized once at the seed
    /// commit so the timed phase lasts about `--seconds` there).
    pub ops_per_budget_second: u64,
}

impl LiveSpec {
    /// The operation mix every client draws from: private keys only.
    pub fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            contention: 0.0,
            private_keys: KEYS_PER_CLIENT,
            value_size: self.value_size,
            read_fraction: self.read_fraction,
            commuting: 0.0,
        }
    }
}

type ReplicaNode = Timed<Replica<KvStore>>;
type ClientNode = Timed<Client<KvOp, KvResponse>>;

/// The trace context shared by every node of a traced live cluster.
#[derive(Clone, Debug)]
pub struct LiveTracing {
    /// Handler spans and message counts.
    pub sink: Arc<TraceSink>,
    /// Transport frame/byte counters.
    pub net: Arc<NetCounters>,
    /// Request lifecycle stages, on the trace epoch's clock.
    pub stages: Arc<MemRecorder>,
}

impl LiveTracing {
    /// A fresh, disabled trace context.
    pub fn new() -> Self {
        let stages = Arc::new(MemRecorder::new());
        // Spans are read back whole; the ordered event log is not.
        stages.set_event_log(false);
        LiveTracing {
            sink: TraceSink::new(),
            net: Arc::default(),
            stages,
        }
    }
}

impl Default for LiveTracing {
    fn default() -> Self {
        Self::new()
    }
}

/// Where one set-up's time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `KeyStore::cluster`.
    pub keygen_s: f64,
    /// Bind, construct, spawn, and one `Put` per client (which opens
    /// every connection).
    pub spawn_connect_s: f64,
    /// Key preload plus the fixed warm-up operations.
    pub warmup_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.keygen_s + self.spawn_connect_s + self.warmup_s
    }
}

/// One closed-loop client as the load generator sees it.
struct LoadClient {
    id: ClientId,
    handle: NodeHandle<KvMsg, ClientNode>,
    workload: Workload,
    /// Expected store content of this client's private keys.
    model: Vec<Option<Vec<u8>>>,
    /// Timestamp the protocol client will assign to the next request.
    next_ts: u64,
    /// Requests acknowledged (delivered) so far.
    acked: u64,
    /// The CPU this client's node lives on; its submitting thread joins it.
    home: Option<usize>,
    /// Root-span recorder (`load:cN`) in traced runs.
    trace: Option<NodeTrace>,
}

/// Why a client stopped.
#[derive(Debug)]
enum OpError {
    /// No delivery within [`OP_TIMEOUT`]; the request drained later.
    TimedOut,
    /// The request never drained, or the node's driver is gone.
    Wedged,
}

impl LoadClient {
    /// Submits one operation and waits for its delivery. Returns the
    /// latency, whether it took the fast path and whether the response
    /// matched the model.
    fn run_op(&mut self, op: KvOp) -> Result<(Duration, bool, bool), OpError> {
        let key_slot = op.key().map(|k| (k.0 % KEYS_PER_CLIENT) as usize);
        let expected = match (&op, key_slot) {
            (KvOp::Get { .. }, Some(slot)) => KvResponse::Value(self.model[slot].clone()),
            _ => KvResponse::Ok,
        };
        if let (KvOp::Put { value, .. }, Some(slot)) = (&op, key_slot) {
            self.model[slot] = Some(value.clone());
        }
        let ts = self.next_ts;
        self.next_ts += 1;
        let start = Instant::now();
        self.handle
            .with_node(move |client, out| client.submit(op, out))
            .map_err(|_| OpError::Wedged)?;
        let mut timed_out = false;
        let delivery = loop {
            let budget = if timed_out { DRAIN_TIMEOUT } else { OP_TIMEOUT };
            match self
                .handle
                .recv_delivery(budget.saturating_sub(start.elapsed()))
            {
                Some(d) if d.ts.0 == ts => break d,
                Some(_) => continue, // a stale delivery of an earlier request
                None if timed_out => return Err(OpError::Wedged),
                None => timed_out = true,
            }
        };
        let end = Instant::now();
        if timed_out {
            return Err(OpError::TimedOut);
        }
        self.acked += 1;
        if let Some(trace) = &self.trace {
            trace.record("op", start, end, Some((self.id.as_u64(), ts)));
        }
        Ok((
            end - start,
            delivery.fast_path,
            delivery.response == expected,
        ))
    }
}

/// What one load phase measured.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// `(completion offset from the phase start, latency)` of every
    /// completed operation, nanoseconds.
    pub ops: Vec<(u64, u64)>,
    /// Operations submitted.
    pub attempted: u64,
    /// Operations that timed out or never drained.
    pub failed: u64,
    /// Completed operations whose response did not match the model.
    pub wrong: u64,
    /// Completed operations that took the fast path.
    pub fast: u64,
    /// Wall time of the phase, nanoseconds.
    pub wall_ns: u64,
    /// Process CPU time (user + system, every thread) spent during the
    /// phase, microseconds.
    pub cpu_us: u64,
    /// `(offset from the phase start in nanoseconds, process CPU time so
    /// far in microseconds)` at the phase start and at every [`WINDOW`]
    /// boundary after it.
    marks: Vec<(u64, u64)>,
}

impl Phase {
    /// Operations that completed in time.
    pub fn completed(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Per full window: operations completed, its length in nanoseconds
    /// and the process CPU time spent, microseconds. The partial window at
    /// the end of the phase is left out.
    fn windows(&self) -> Vec<(u64, u64, u64)> {
        let mut done: Vec<u64> = self.ops.iter().map(|op| op.0).collect();
        done.sort_unstable();
        self.marks
            .windows(2)
            .map(|pair| {
                let ops = done.partition_point(|&d| d < pair[1].0)
                    - done.partition_point(|&d| d < pair[0].0);
                (ops as u64, pair[1].0 - pair[0].0, pair[1].1 - pair[0].1)
            })
            .collect()
    }

    /// Completed operations per second: the median over the phase's full
    /// windows (the plain rate of a phase shorter than one window).
    pub fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .windows()
            .iter()
            .map(|&(ops, ns, _)| ops as f64 * 1e9 / ns.max(1) as f64)
            .collect();
        if rates.is_empty() {
            return self.completed() as f64 * 1e9 / self.wall_ns.max(1) as f64;
        }
        median(&mut rates)
    }

    /// Process CPU time per completed operation, microseconds: the median
    /// over the phase's full windows (the plain ratio of a phase shorter
    /// than one window).
    pub fn cpu_us_per_op(&self) -> f64 {
        let mut costs: Vec<f64> = self
            .windows()
            .iter()
            .filter(|w| w.0 > 0)
            .map(|&(ops, _, cpu_us)| cpu_us as f64 / ops as f64)
            .collect();
        if costs.is_empty() {
            return self.cpu_us as f64 / self.completed().max(1) as f64;
        }
        median(&mut costs)
    }

    /// The `q`-quantile of all latencies, microseconds.
    pub fn lat_us(&self, q: f64) -> f64 {
        let lat: Vec<u64> = self.ops.iter().map(|op| op.1).collect();
        quantile_u64(&lat, q) / 1e3
    }
}

/// A running cluster.
pub struct LiveCluster {
    replicas: Vec<NodeHandle<KvMsg, ReplicaNode>>,
    clients: Vec<LoadClient>,
    /// Where this cluster's set-up time went.
    pub setup: SetupTimes,
}

/// The replicas' final state, checked after shutdown.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Human-readable findings; empty when every check passed.
    pub problems: Vec<String>,
    /// Σ `ReplicaStats::owner_changes`.
    pub owner_changes: u64,
    /// Σ `ClientStats::retries`.
    pub client_retries: u64,
}

impl Verdict {
    /// Every check passed.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

impl LiveCluster {
    /// Sets one cluster up: keys, nodes, connections, preload, warm-up.
    /// Inputs derive from `seed`; `quick` divides the warm-up by 20.
    ///
    /// # Panics
    ///
    /// Panics if loopback sockets cannot be bound, nodes fail to spawn or
    /// the set-up operations do not complete.
    pub fn set_up(
        spec: &LiveSpec,
        seed: u64,
        quick: bool,
        tracing: Option<&LiveTracing>,
    ) -> LiveCluster {
        let t0 = Instant::now();
        let cluster = ClusterConfig::for_faults(1);
        let mut cfg = EzConfig::new(cluster);
        // A client that completed through another replica keeps using it
        // (what a live deployment runs; see EzConfig::sticky_rotation).
        cfg.sticky_rotation = true;
        let mut nodes: Vec<NodeId> = cluster.replicas().map(NodeId::Replica).collect();
        nodes.extend((0..CLIENTS as u64).map(|c| NodeId::Client(ClientId::new(c))));
        let mut stores = KeyStore::cluster(CryptoKind::Mac, &seed.to_le_bytes(), &nodes);
        let client_stores = stores.split_off(cluster.n());
        let keygen_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut book = AddressBook::new();
        let mut listeners = Vec::new();
        for node in &nodes {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            book.insert(*node, listener.local_addr().expect("local addr"));
            listeners.push(listener);
        }
        let client_listeners = listeners.split_off(cluster.n());
        // Every node is a one-CPU machine: replica i and client i live on
        // the i-th allowed CPU (round-robin), and a node's threads — driver,
        // acceptor, readers, writers — inherit the CPU this thread is
        // confined to while it spawns the node. Left to the scheduler, the
        // ~57 threads wander, and identical `live_large` runs spread 9-10 %
        // on `ops_per_s` and `lat_p50_us` where placed ones spread 2-4 %
        // (README, sizing finding 3).
        let cpus = proc::allowed_cpus();
        let home = |index: usize| cpus.get(index % cpus.len().max(1)).copied();
        let mut replicas = Vec::new();
        for ((rid, keys), listener) in cluster.replicas().zip(stores).zip(listeners) {
            let replica = Replica::new(rid, cfg, keys, KvStore::new());
            let label = format!("R{}", rid.index());
            move_to(home(rid.index()));
            replicas.push(spawn(
                replica,
                Replica::with_recorder,
                label,
                tracing,
                &book,
                listener,
            ));
        }
        let mut clients = Vec::new();
        for ((index, keys), listener) in
            (0..CLIENTS as u64).zip(client_stores).zip(client_listeners)
        {
            let id = ClientId::new(index);
            let client: Client<KvOp, KvResponse> =
                Client::new(id, cfg, keys, ReplicaId::new(index as u8));
            let label = format!("c{index}");
            move_to(home(index as usize));
            let handle = spawn(
                client,
                Client::with_recorder,
                label,
                tracing,
                &book,
                listener,
            );
            clients.push(LoadClient {
                id,
                handle,
                workload: Workload::new(spec.workload(), index, seed),
                model: vec![None; KEYS_PER_CLIENT as usize],
                next_ts: 1,
                acked: 0,
                home: home(index as usize),
                trace: tracing.map(|t| t.sink.register(format!("load:c{index}"))),
            });
        }
        proc::run_on(&cpus);
        let mut live = LiveCluster {
            replicas,
            clients,
            setup: SetupTimes::default(),
        };
        // One Put per client reaches every replica and back: all
        // connections exist afterwards.
        let first = live.preload(0..1, spec.value_size);
        assert!(first.failed == 0, "connection-opening operations failed");
        let spawn_connect_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let preload = live.preload(1..KEYS_PER_CLIENT, spec.value_size);
        let warmup_ops = if quick {
            spec.warmup_ops / 20
        } else {
            spec.warmup_ops
        };
        let warmup = live.drive(warmup_ops);
        assert!(
            preload.failed + warmup.failed + preload.wrong + warmup.wrong == 0,
            "set-up operations failed"
        );
        live.setup = SetupTimes {
            keygen_s,
            spawn_connect_s,
            warmup_s: t2.elapsed().as_secs_f64(),
        };
        live
    }

    /// Writes each client's private keys in `slots` once, so that every
    /// later `Get` finds a value of the workload's size.
    fn preload(&mut self, slots: std::ops::Range<u64>, value_size: usize) -> Phase {
        self.drive_each(|client, n| {
            let slot = slots.start + n;
            (slot < slots.end).then(|| KvOp::Put {
                key: Key(client.id.as_u64() * KEYS_PER_CLIENT + slot),
                value: vec![(slot % 251) as u8; value_size],
            })
        })
    }

    /// Runs `total` workload operations, shared between the clients'
    /// threads so that both finish together.
    pub fn drive(&mut self, total: u64) -> Phase {
        let next = AtomicU64::new(0);
        self.drive_each(|client, _| {
            (next.fetch_add(1, Ordering::Relaxed) < total).then(|| client.workload.next_op())
        })
    }

    /// One submitting thread per client; each asks `claim` for its next
    /// operation (given how many it has submitted so far) until it
    /// returns `None`.
    fn drive_each(&mut self, claim: impl Fn(&mut LoadClient, u64) -> Option<KvOp> + Sync) -> Phase {
        let phase_start = Instant::now();
        let cpu_before = proc::usage().cpu_us;
        let claim = &claim;
        let (parts, marks) = std::thread::scope(|scope| {
            // Reads the clocks at every window boundary until the load
            // threads are done (the channel's sender is dropped).
            let (done, until_done) = mpsc::channel::<()>();
            let sampler = scope.spawn(move || {
                let mut marks = vec![(0, cpu_before)];
                loop {
                    let boundary = WINDOW * marks.len() as u32;
                    let wait = boundary.saturating_sub(phase_start.elapsed());
                    if until_done.recv_timeout(wait) != Err(mpsc::RecvTimeoutError::Timeout) {
                        return marks;
                    }
                    let now = phase_start.elapsed().as_nanos() as u64;
                    marks.push((now, proc::usage().cpu_us));
                }
            });
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    scope.spawn(move || {
                        move_to(client.home);
                        let mut part = Phase::default();
                        while let Some(op) = claim(client, part.attempted) {
                            part.attempted += 1;
                            match client.run_op(op) {
                                Ok((lat, fast, right)) => {
                                    let done = phase_start.elapsed().as_nanos() as u64;
                                    part.ops.push((done, lat.as_nanos() as u64));
                                    part.fast += u64::from(fast);
                                    part.wrong += u64::from(!right);
                                }
                                Err(OpError::TimedOut) => part.failed += 1,
                                Err(OpError::Wedged) => {
                                    part.failed += 1;
                                    break;
                                }
                            }
                        }
                        part
                    })
                })
                .collect();
            let parts: Vec<Phase> = threads
                .into_iter()
                .map(|t| t.join().expect("load thread panicked"))
                .collect();
            drop(done);
            (parts, sampler.join().expect("sampler thread panicked"))
        });
        let mut phase = Phase {
            wall_ns: phase_start.elapsed().as_nanos() as u64,
            cpu_us: proc::usage().cpu_us.saturating_sub(cpu_before),
            marks,
            ..Phase::default()
        };
        for part in parts {
            phase.ops.extend(part.ops);
            phase.attempted += part.attempted;
            phase.failed += part.failed;
            phase.wrong += part.wrong;
            phase.fast += part.fast;
        }
        phase
    }

    /// Waits (bounded) until every replica has finally executed every
    /// acknowledged request, shuts all nodes down and checks the outcome:
    /// the four `KvStore` fingerprints match, every replica applied each
    /// acknowledged request exactly once, and the stores hold what the
    /// clients' models say they should.
    pub fn shut_down_and_verify(self, failed_ops: u64) -> Verdict {
        let acked: u64 = self.clients.iter().map(|c| c.acked).sum();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && self.replicas.iter().any(|r| executed(r) < Some(acked)) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut problems = Vec::new();
        let mut client_retries = 0;
        let mut models = Vec::new();
        for client in self.clients {
            match client.handle.shutdown() {
                Some(node) => client_retries += node.inner().stats().retries,
                None => problems.push(format!("client {:?} driver panicked", client.id)),
            }
            models.push((client.id, client.model));
        }
        let replicas: Vec<Replica<KvStore>> = self
            .replicas
            .into_iter()
            .filter_map(|h| h.shutdown().map(Timed::into_inner))
            .collect();
        if replicas.len() != 4 {
            problems.push(format!(
                "only {} of 4 replica drivers returned",
                replicas.len()
            ));
        }
        let fingerprints: Vec<u64> = replicas.iter().map(|r| r.app().fingerprint()).collect();
        if fingerprints.windows(2).any(|w| w[0] != w[1]) {
            problems.push(format!("replica states diverged: {fingerprints:x?}"));
        }
        for r in &replicas {
            let applied = r.applied_log();
            let distinct: std::collections::HashSet<_> = applied.iter().collect();
            if distinct.len() != applied.len() {
                problems.push(format!("{:?} applied a request twice", r.replica_id()));
            }
            // A timed-out request may or may not have been applied.
            let n = applied.len() as u64;
            if n < acked || n > acked + failed_ops {
                problems.push(format!(
                    "{:?} applied {n} requests, {acked} were acknowledged",
                    r.replica_id()
                ));
            }
        }
        if let Some(r0) = replicas.first() {
            for (id, model) in &models {
                for (slot, want) in model.iter().enumerate() {
                    let key = Key(id.as_u64() * KEYS_PER_CLIENT + slot as u64);
                    if r0.app().get(key) != *want && failed_ops == 0 {
                        problems.push(format!("store disagrees with client {id:?} on {key:?}"));
                    }
                }
            }
        }
        Verdict {
            problems,
            owner_changes: replicas.iter().map(|r| r.stats().owner_changes).sum(),
            client_retries,
        }
    }
}

/// Spawns `node` on `listener`. Untraced: wrapped in a plain [`Timed`],
/// no recorder. Traced: the node and its transport get a [`NodeRecorder`],
/// the wrapper records under `label`, and the recorder is re-based onto
/// the trace epoch from inside the driver thread (one simultaneous reading
/// of both clocks).
///
/// # Panics
///
/// Panics if the listener's address cannot be read.
fn spawn<N>(
    node: N,
    with_recorder: fn(N, Arc<dyn Recorder>) -> N,
    label: String,
    tracing: Option<&LiveTracing>,
    book: &AddressBook,
    listener: TcpListener,
) -> NodeHandle<KvMsg, Timed<N>>
where
    N: ezbft_smr::ProtocolNode<Message = KvMsg, Response = KvResponse> + 'static,
{
    let Some(t) = tracing else {
        return NodeHandle::spawn_with_listener(Timed::plain(node), book.clone(), listener)
            .expect("spawn node");
    };
    let rec = Arc::new(NodeRecorder::new(
        Arc::clone(&t.sink),
        Arc::clone(&t.net),
        Arc::clone(&t.stages),
    ));
    let node = Timed::traced(with_recorder(node, rec.clone()), t.sink.register(label));
    let handle =
        NodeHandle::spawn_observed(node, book.clone(), listener, rec.clone()).expect("spawn node");
    // A driver that already stopped has no clock to align.
    let _ = handle.with_node(move |_, out| rec.align(out.now().as_micros()));
    handle
}

/// Confines the calling thread, and the threads it spawns from now on, to
/// `cpu` if there is one (and the kernel agrees).
fn move_to(cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        proc::run_on(&[cpu]);
    }
}

/// How many commands a replica has finally executed (`None` if its
/// driver is gone or does not answer within a second).
fn executed(replica: &NodeHandle<KvMsg, ReplicaNode>) -> Option<u64> {
    let (tx, rx) = mpsc::sync_channel(1);
    replica
        .with_node(move |node, _| {
            let _ = tx.try_send(node.inner().stats().executed);
        })
        .ok()?;
    rx.recv_timeout(Duration::from_secs(1)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_metrics_are_medians_over_the_full_windows() {
        const SECOND: u64 = 1_000_000_000;
        // 3.5 s: 10, 30 and 20 completions in the full windows, which cost
        // 1, 6 and 4 ms of CPU; 99 completions in the partial window.
        let mut phase = Phase {
            wall_ns: 7 * SECOND / 2,
            cpu_us: 20_000,
            marks: vec![
                (0, 500),
                (SECOND, 1_500),
                (2 * SECOND, 7_500),
                (3 * SECOND, 11_500),
            ],
            ..Phase::default()
        };
        for (window, count) in [(0, 10), (1, 30), (2, 20), (3, 99)] {
            phase
                .ops
                .extend((0..count).map(|i| (window * SECOND + i, 700_000)));
        }
        assert_eq!(phase.ops_per_s(), 20.0);
        assert_eq!(phase.cpu_us_per_op(), 200.0);
        assert_eq!(phase.lat_us(0.5), 700.0);

        // Shorter than one window: the plain figures.
        let short = Phase {
            ops: vec![(1, 5), (2, 5)],
            wall_ns: SECOND / 2,
            cpu_us: 30,
            marks: vec![(0, 0)],
            ..Phase::default()
        };
        assert_eq!(short.ops_per_s(), 4.0);
        assert_eq!(short.cpu_us_per_op(), 15.0);
    }
}
