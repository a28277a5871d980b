//! The `layers` pass: direct timed calls into single layers, with inputs
//! taken from the workloads.
//!
//! Protocol messages are not hand-built: a short simulator run shaped
//! like each workload is tapped and the largest message of each kind is
//! kept, so the wire numbers describe what the workloads actually send
//! and the benchmark does not depend on the messages' field layout.
//!
//! Every figure is ns (or µs) per operation as the median of
//! [`BATCHES`] timed batches; allocation counts come from the counting
//! allocator and read 0 in a binary that does not install it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ezbft_core::{execution_units, DepTracker, ExecNode, InstanceId};
use ezbft_crypto::{Audience, CryptoKind, Digest, KeyStore, Signature};
use ezbft_kv::{Key, KvOp, KvResponse, KvStore, WorkloadConfig};
use ezbft_obs::{MemRecorder, NullRecorder, Recorder, SpanKey, Stage};
use ezbft_simnet::{Region, SimConfig, SimNet, Topology};
use ezbft_smr::{
    Actions, Application, ClientId, Command as _, ExecItem, ExecUnit, Executor, Micros, NodeId,
    ParallelExecutor, ProtocolNode, ReplicaId, SeqExecutor, Timestamp,
};
use ezbft_transport::{AddressBook, NodeHandle};
use ezbft_wire::{encode_frame, from_bytes, to_bytes, FrameDecoder};

use crate::alloc;
use crate::proc;
use crate::sim::{build_sim, SimNode, SimSpec};
use crate::stats::median;
use crate::timed::KvMsg;

/// Timed batches per figure.
pub const BATCHES: usize = 30;

/// How long one batch should run; the iteration count is calibrated to it.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    batch: Duration,
}

impl Budget {
    /// ~3 ms batches (≈ 0.1 s per figure) for reported numbers, ~0.2 ms
    /// for smoke runs.
    pub fn new(quick: bool) -> Self {
        Budget {
            batch: Duration::from_micros(if quick { 200 } else { 3_000 }),
        }
    }

    /// Median ns per call of `f` over [`BATCHES`] batches.
    fn ns_per_call(&self, mut f: impl FnMut()) -> f64 {
        // Calibrate: double the batch until it is long enough to time.
        let mut iters = 1u64;
        let per_call_ns = loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let ns = t.elapsed().as_nanos() as f64;
            if ns >= 50_000.0 || iters >= 1 << 20 {
                break ns / iters as f64;
            }
            iters *= 2;
        };
        let iters = ((self.batch.as_nanos() as f64 / per_call_ns.max(1.0)) as u64).max(1);
        let mut batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        median(&mut batches)
    }
}

/// Keeps `value` (and the work that made it) from being optimised away.
fn eat<T>(value: T) {
    let _ = black_box(value);
}

/// Allocations per call of `f` (0 without the counting allocator).
fn allocs_per_call(mut f: impl FnMut()) -> f64 {
    const CALLS: u64 = 1_000;
    alloc::set_counting(true);
    let (before, _) = alloc::counted();
    for _ in 0..CALLS {
        f();
    }
    let (after, _) = alloc::counted();
    alloc::set_counting(false);
    (after - before) as f64 / CALLS as f64
}

/// A node wrapper that keeps, per message kind, the largest message it
/// was delivered (by encoded size).
struct Tap {
    inner: SimNode,
    seen: Arc<Mutex<HashMap<&'static str, (usize, KvMsg)>>>,
}

impl ProtocolNode for Tap {
    type Message = KvMsg;
    type Response = KvResponse;

    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn on_start(&mut self, out: &mut Actions<KvMsg, KvResponse>) {
        self.inner.on_start(out);
    }
    fn on_message(&mut self, from: NodeId, msg: KvMsg, out: &mut Actions<KvMsg, KvResponse>) {
        let size = to_bytes(&msg).map(|b| b.len()).unwrap_or(0);
        let mut seen = self.seen.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = seen.entry(msg.kind()).or_insert_with(|| (0, msg.clone()));
        if size > slot.0 {
            *slot = (size, msg.clone());
        }
        drop(seen);
        self.inner.on_message(from, msg, out);
    }
    fn on_timer(&mut self, id: ezbft_smr::TimerId, out: &mut Actions<KvMsg, KvResponse>) {
        self.inner.on_timer(id, out);
    }
}

/// Runs a 4-client, 8-requests-each simulation shaped by `spec` and
/// `workload` and returns the largest delivered message of each kind.
fn capture(spec: &SimSpec, workload: WorkloadConfig) -> HashMap<&'static str, KvMsg> {
    let seen = Arc::new(Mutex::new(HashMap::new()));
    let (mut sim, _) = build_sim(spec, workload, spec.requests_per_client, 7, None, |inner| {
        Box::new(Tap {
            inner,
            seen: Arc::clone(&seen),
        })
    });
    sim.run_until_deliveries(32);
    drop(sim);
    let seen = Arc::into_inner(seen).expect("taps dropped with the simulation");
    seen.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|(kind, (_, msg))| (kind, msg))
        .collect()
}

fn captured(map: &HashMap<&'static str, KvMsg>, kind: &str) -> KvMsg {
    map.get(kind)
        .unwrap_or_else(|| panic!("the capture run delivered no {kind} message"))
        .clone()
}

/// Echoes every message back to its sender.
struct Echo(NodeId);

impl ProtocolNode for Echo {
    type Message = Vec<u8>;
    type Response = ();

    fn id(&self) -> NodeId {
        self.0
    }
    fn on_message(&mut self, from: NodeId, msg: Vec<u8>, out: &mut Actions<Vec<u8>, ()>) {
        out.send(from, msg);
    }
}

/// Bounces each message off `peer` until `left` round trips are done,
/// then reports a delivery.
struct Pinger {
    id: NodeId,
    peer: NodeId,
    left: u64,
}

impl Pinger {
    fn start(&mut self, round_trips: u64, payload: Vec<u8>, out: &mut Actions<Vec<u8>, ()>) {
        self.left = round_trips;
        out.send(self.peer, payload);
    }
}

impl ProtocolNode for Pinger {
    type Message = Vec<u8>;
    type Response = ();

    fn id(&self) -> NodeId {
        self.id
    }
    fn on_start(&mut self, out: &mut Actions<Vec<u8>, ()>) {
        // Under the simulator the round trips are set at construction.
        if self.left > 0 {
            out.send(self.peer, vec![7u8; 32]);
        }
    }
    fn on_message(&mut self, _from: NodeId, msg: Vec<u8>, out: &mut Actions<Vec<u8>, ()>) {
        self.left -= 1;
        if self.left == 0 {
            out.deliver(Timestamp(0), (), true);
        } else {
            out.send(self.peer, msg);
        }
    }
}

const PINGER: NodeId = NodeId::Replica(ReplicaId::new(0));
const ECHO: NodeId = NodeId::Replica(ReplicaId::new(1));

/// Median µs per round trip of a `payload_len`-byte message between two
/// `NodeHandle`s over loopback TCP: thread handoffs, syscalls and framing
/// with no protocol work.
fn hop_rtt_us(payload_len: usize, quick: bool) -> f64 {
    let round_trips: u64 = if quick { 20 } else { 200 };
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let mut book = AddressBook::new();
    for (id, l) in [PINGER, ECHO].into_iter().zip(&listeners) {
        book.insert(id, l.local_addr().expect("local addr"));
    }
    // As in the live workloads, each node has a CPU of its own, so that a
    // hop crosses CPUs (where there are two) on every run, not on some.
    let cpus = proc::allowed_cpus();
    let mut listeners = listeners.into_iter();
    if let Some(&cpu) = cpus.first() {
        proc::run_on(&[cpu]);
    }
    let pinger = NodeHandle::spawn_with_listener(
        Pinger {
            id: PINGER,
            peer: ECHO,
            left: 0,
        },
        book.clone(),
        listeners.next().expect("two listeners"),
    )
    .expect("spawn pinger");
    if let Some(&cpu) = cpus.get(1 % cpus.len().max(1)) {
        proc::run_on(&[cpu]);
    }
    let echo = NodeHandle::spawn_with_listener(Echo(ECHO), book, listeners.next().expect("two"))
        .expect("spawn echo");
    proc::run_on(&cpus);
    let batch = || {
        let payload = vec![7u8; payload_len];
        let t = Instant::now();
        pinger
            .with_node(move |p, out| p.start(round_trips, payload, out))
            .expect("pinger running");
        pinger
            .recv_delivery(Duration::from_secs(10))
            .expect("echo round trips complete");
        t.elapsed().as_nanos() as f64 / round_trips as f64 / 1e3
    };
    batch(); // connects both directions
    let mut rtts: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    let _ = (pinger.shutdown(), echo.shutdown());
    median(&mut rtts)
}

/// Median ns of simulator scheduling per delivered event, with echo
/// nodes (no protocol work).
fn simnet_event_ns(quick: bool) -> f64 {
    let round_trips: u64 = if quick { 200 } else { 5_000 };
    let mut per_event: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut sim: SimNet<Vec<u8>, ()> = SimNet::new(Topology::exp1(), SimConfig::default());
            sim.add_node(
                Region(0),
                Box::new(Pinger {
                    id: PINGER,
                    peer: ECHO,
                    left: round_trips,
                }),
            );
            sim.add_node(Region(1), Box::new(Echo(ECHO)));
            let t = Instant::now();
            sim.run_until_deliveries(1);
            let ns = t.elapsed().as_nanos() as f64;
            ns / sim.stats().events.max(1) as f64
        })
        .collect();
    median(&mut per_event)
}

/// 64 singleton units on disjoint keys, as a fast-path wave hands them to
/// the executor.
fn exec_wave() -> Vec<ExecUnit<KvOp>> {
    (0..64u64)
        .map(|i| {
            ExecUnit::from_items(vec![ExecItem {
                tag: u128::from(i),
                cmd: KvOp::Put {
                    key: Key(i),
                    value: vec![i as u8; 32],
                },
            }])
        })
        .collect()
}

/// A 64-instance committed graph: `group` = 1 gives a dependency chain,
/// `group` = 8 gives eight 8-cycles (SCCs), each depending on the one
/// before it.
fn exec_graph(group: u64) -> BTreeMap<InstanceId, ExecNode> {
    let inst = |i: u64| InstanceId::new(ReplicaId::new((i % 4) as u8), i / 4);
    (0..64u64)
        .map(|i| {
            let mut deps = BTreeSet::new();
            if i > 0 {
                deps.insert(inst(i - 1));
            }
            if group > 1 && i % group == 0 {
                deps.insert(inst(i + group - 1)); // closes the cycle
            }
            (inst(i), ExecNode { seq: i + 1, deps })
        })
        .collect()
}

/// Encode and/or decode time of one captured message, plus its encoding.
fn wire_figures(
    b: &Budget,
    enc: Option<&'static str>,
    dec: Option<&'static str>,
    msg: &KvMsg,
) -> (Vec<(&'static str, f64)>, Vec<u8>) {
    let bytes = to_bytes(msg).expect("captured message encodes");
    let mut figures = Vec::new();
    if let Some(name) = enc {
        figures.push((name, b.ns_per_call(|| eat(to_bytes(black_box(msg))))));
    }
    if let Some(name) = dec {
        figures.push((
            name,
            b.ns_per_call(|| eat(from_bytes::<KvMsg>(black_box(&bytes)))),
        ));
    }
    (figures, bytes)
}

/// Runs every layer benchmark; returns `(metric name, value)` pairs.
pub fn run(quick: bool) -> Vec<(&'static str, f64)> {
    let b = Budget::new(quick);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // --- wire: messages captured from workload-shaped runs -------------
    let base = SimSpec {
        name: "capture",
        crypto: CryptoKind::Mac,
        clients_per_region: 1,
        requests_per_client: 8,
        contention_pct: 0,
        batch_size: 1,
        batch_delay: Micros::ZERO,
        commit_aggregation: false,
        compact_certs: false,
        warmup_passes: 0,
        passes_per_budget_second: 0.0,
    };
    let puts = |value_size| WorkloadConfig {
        value_size,
        ..WorkloadConfig::default()
    };
    let small = capture(&base, puts(32));
    // One private key, half reads: the reads return the 4 KiB value.
    let large = capture(
        &base,
        WorkloadConfig {
            private_keys: 1,
            read_fraction: 0.5,
            ..puts(4096)
        },
    );
    let agg = capture(
        &SimSpec {
            crypto: CryptoKind::Agg,
            commit_aggregation: true,
            compact_certs: true,
            ..base
        },
        puts(32),
    );
    let mut wire = |enc: Option<&'static str>, dec: Option<&'static str>, msg: KvMsg| {
        let (figures, bytes) = wire_figures(&b, enc, dec, &msg);
        out.extend(figures);
        bytes
    };
    let so32 = wire(
        Some("wire.encode_ns.specorder_32"),
        Some("wire.decode_ns.specorder_32"),
        captured(&small, "spec-order"),
    );
    let so4k = wire(
        Some("wire.encode_ns.specorder_4k"),
        Some("wire.decode_ns.specorder_4k"),
        captured(&large, "spec-order"),
    );
    wire(
        Some("wire.encode_ns.specreply_4k"),
        Some("wire.decode_ns.specreply_4k"),
        captured(&large, "spec-reply"),
    );
    wire(
        Some("wire.encode_ns.commitfast"),
        Some("wire.decode_ns.commitfast"),
        captured(&small, "commit-fast"),
    );
    wire(
        None,
        Some("wire.decode_ns.commitagg_compact"),
        captured(&agg, "commit-agg"),
    );
    out.push((
        "wire.decode_allocs.specorder_32",
        allocs_per_call(|| eat(from_bytes::<KvMsg>(black_box(&so32)))),
    ));
    out.push((
        "wire.decode_allocs.specorder_4k",
        allocs_per_call(|| eat(from_bytes::<KvMsg>(black_box(&so4k)))),
    ));
    out.push((
        "wire.frame_roundtrip_ns.4k",
        b.ns_per_call(|| {
            let frame = encode_frame(black_box(&so4k)).expect("frame fits");
            let mut decoder = FrameDecoder::new();
            decoder.extend(&frame);
            black_box(decoder.next_frame().expect("well-formed frame"));
        }),
    ));

    // --- crypto --------------------------------------------------------
    let data32 = vec![0xA5u8; 32];
    let data4k = vec![0xA5u8; 4096];
    out.push((
        "crypto.sha256_ns.32",
        b.ns_per_call(|| eat(Digest::of(black_box(&data32)))),
    ));
    out.push((
        "crypto.sha256_ns.4k",
        b.ns_per_call(|| eat(Digest::of(black_box(&data4k)))),
    ));
    let replicas: Vec<NodeId> = (0..4).map(|r| NodeId::Replica(ReplicaId::new(r))).collect();
    let mut six = replicas.clone();
    six.extend((0..2).map(|c| NodeId::Client(ClientId::new(c))));
    let audience = Audience::replicas(4);
    let mut mac = KeyStore::cluster(CryptoKind::Mac, b"layers", &six);
    out.push((
        "crypto.mac_sign_ns",
        b.ns_per_call(|| eat(mac[0].sign(black_box(&data32), &audience))),
    ));
    let mac_sigs: Vec<Signature> = (0..4).map(|i| mac[i].sign(&data32, &audience)).collect();
    out.push((
        "crypto.mac_verify_ns",
        b.ns_per_call(|| {
            black_box(mac[1].verify(replicas[0], black_box(&data32), &mac_sigs[0])).expect("valid")
        }),
    ));
    out.push((
        "crypto.votes_verify_ns.n4",
        b.ns_per_call(|| {
            for (signer, sig) in replicas.iter().zip(&mac_sigs) {
                black_box(mac[1].verify(*signer, black_box(&data32), sig)).expect("valid");
            }
        }),
    ));
    let mut aggs = KeyStore::cluster(CryptoKind::Agg, b"layers", &six);
    out.push((
        "crypto.agg_partial_ns",
        b.ns_per_call(|| eat(aggs[0].sign(black_box(&data32), &audience))),
    ));
    let partials: Vec<Signature> = (0..4).map(|i| aggs[i].sign(&data32, &audience)).collect();
    let partial_refs: Vec<&Signature> = partials.iter().collect();
    out.push((
        "crypto.agg_combine_ns.n4",
        b.ns_per_call(|| eat(aggs[0].aggregate(black_box(&partial_refs)))),
    ));
    let combined = aggs[0].aggregate(&partial_refs).expect("four partials");
    out.push((
        "crypto.agg_verify_ns.n4",
        b.ns_per_call(|| {
            black_box(aggs[1].verify_agg(&replicas, black_box(&data32), &combined)).expect("valid")
        }),
    ));
    out.push((
        "crypto.keygen_ms.mac_n6",
        b.ns_per_call(|| eat(KeyStore::cluster(CryptoKind::Mac, b"layers", &six))) / 1e6,
    ));

    // --- core: dependency tracking and execution planning --------------
    let mut tracker = DepTracker::new();
    let mut slot = 0u64;
    out.push((
        "core.deps_register_ns.disjoint",
        b.ns_per_call(|| {
            slot += 1;
            let keys = KvOp::Put {
                key: Key(slot % 128),
                value: Vec::new(),
            }
            .conflict_keys();
            let inst = InstanceId::new(ReplicaId::new((slot % 4) as u8), slot);
            black_box(tracker.collect_and_register(inst, &keys));
        }),
    ));
    let hot = KvOp::Put {
        key: Key(u64::MAX),
        value: Vec::new(),
    }
    .conflict_keys();
    out.push((
        "core.deps_register_ns.hot",
        b.ns_per_call(|| {
            slot += 1;
            let inst = InstanceId::new(ReplicaId::new((slot % 4) as u8), slot);
            black_box(tracker.collect_and_register(inst, &hot));
        }),
    ));
    for (name, group) in [
        ("core.graph_units_ns.chain64", 1),
        ("core.graph_units_ns.scc8", 8),
    ] {
        let graph = exec_graph(group);
        out.push((
            name,
            b.ns_per_call(|| eat(execution_units(black_box(&graph), |_| false))),
        ));
    }

    // --- kv / smr: applying commands -----------------------------------
    let mut store = KvStore::new();
    for (name, op) in [
        (
            "kv.put_ns.32",
            KvOp::Put {
                key: Key(1),
                value: data32.clone(),
            },
        ),
        (
            "kv.put_ns.4k",
            KvOp::Put {
                key: Key(2),
                value: data4k.clone(),
            },
        ),
        ("kv.get_ns.4k", KvOp::Get { key: Key(2) }),
    ] {
        out.push((name, b.ns_per_call(|| eat(store.apply(black_box(&op))))));
    }
    let wave = exec_wave();
    let per_cmd = |ns: f64| ns / wave.len() as f64;
    out.push((
        "smr.exec_seq_ns_per_cmd",
        per_cmd(b.ns_per_call(|| eat(SeqExecutor.execute(&mut store, &wave)))),
    ));
    let par4 = ParallelExecutor::new(4);
    out.push((
        "smr.exec_par4_ns_per_cmd",
        per_cmd(b.ns_per_call(|| eat(par4.execute(&mut store, &wave)))),
    ));

    // --- drivers and telemetry -----------------------------------------
    out.push(("transport.hop_rtt_us", hop_rtt_us(32, quick)));
    out.push(("transport.hop_rtt_us.4k", hop_rtt_us(4096, quick)));
    out.push(("simnet.event_ns", simnet_event_ns(quick)));
    let mut req = 0u64;
    for (name, rec) in [
        (
            "obs.record_ns.null",
            Arc::new(NullRecorder) as Arc<dyn Recorder>,
        ),
        ("obs.record_ns.mem", {
            let mem = MemRecorder::new();
            mem.set_event_log(false);
            mem.set_evict_on_reply(true);
            Arc::new(mem) as Arc<dyn Recorder>
        }),
    ] {
        out.push((
            name,
            b.ns_per_call(|| {
                // One request's life as a node records it: two stages,
                // the second retiring the span.
                req += 1;
                let key = SpanKey { client: 0, req };
                rec.stage(key, Stage::Submit, req);
                rec.stage(key, Stage::Reply, req + 1);
            }) / 2.0,
        ));
    }
    out
}

/// `(name, unit)` of every figure [`run`] reports, in order.
pub const NAMES: [(&str, &str); 35] = [
    ("wire.encode_ns.specorder_32", "ns"),
    ("wire.decode_ns.specorder_32", "ns"),
    ("wire.encode_ns.specorder_4k", "ns"),
    ("wire.decode_ns.specorder_4k", "ns"),
    ("wire.encode_ns.specreply_4k", "ns"),
    ("wire.decode_ns.specreply_4k", "ns"),
    ("wire.encode_ns.commitfast", "ns"),
    ("wire.decode_ns.commitfast", "ns"),
    ("wire.decode_ns.commitagg_compact", "ns"),
    ("wire.decode_allocs.specorder_32", "count"),
    ("wire.decode_allocs.specorder_4k", "count"),
    ("wire.frame_roundtrip_ns.4k", "ns"),
    ("crypto.sha256_ns.32", "ns"),
    ("crypto.sha256_ns.4k", "ns"),
    ("crypto.mac_sign_ns", "ns"),
    ("crypto.mac_verify_ns", "ns"),
    ("crypto.votes_verify_ns.n4", "ns"),
    ("crypto.agg_partial_ns", "ns"),
    ("crypto.agg_combine_ns.n4", "ns"),
    ("crypto.agg_verify_ns.n4", "ns"),
    ("crypto.keygen_ms.mac_n6", "ms"),
    ("core.deps_register_ns.disjoint", "ns"),
    ("core.deps_register_ns.hot", "ns"),
    ("core.graph_units_ns.chain64", "ns"),
    ("core.graph_units_ns.scc8", "ns"),
    ("kv.put_ns.32", "ns"),
    ("kv.put_ns.4k", "ns"),
    ("kv.get_ns.4k", "ns"),
    ("smr.exec_seq_ns_per_cmd", "ns"),
    ("smr.exec_par4_ns_per_cmd", "ns"),
    ("transport.hop_rtt_us", "us"),
    ("transport.hop_rtt_us.4k", "us"),
    ("simnet.event_ns", "ns"),
    ("obs.record_ns.null", "ns"),
    ("obs.record_ns.mem", "ns"),
];
