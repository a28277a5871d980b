//! `Timed<N>`: the benchmark-owned span-recording wrapper around every
//! replica and client, in both drivers.
//!
//! One span per `on_start` / `on_message` / `on_timer` / `submit` call:
//! node, handler (the message kind, or `timer` / `submit` / `start`),
//! start, end, and the client-request id `(client, timestamp)` where the
//! message exposes one. Spans of one request share that id. Handler calls
//! never nest (the protocol nodes are sans-io and both drivers call them
//! one at a time), so a handler span's self time is its duration; the
//! per-request root span recorded by the live load generator (`op`) is
//! the parent of every handler span carrying its id, and its self time is
//! its duration minus the handler time inside it — i.e. transport,
//! queueing and scheduling.
//!
//! Counts are taken at the same boundary: messages handed to the driver,
//! SPECORDERs sent and the requests they carry.
//!
//! A node built with [`Timed::plain`] forwards with one branch per call;
//! that is what the end-to-end (tracing off) runs use, so both binaries
//! share the cluster-construction code.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ezbft_core::Msg;
use ezbft_kv::{KvOp, KvResponse};
use ezbft_smr::{Action, Actions, ClientNode, NodeId, ProtocolNode, TimerId};

/// The wire message of every cluster the benchmark builds.
pub type KvMsg = Msg<KvOp, KvResponse>;
type Out = Actions<KvMsg, KvResponse>;

/// A client-request identity: `(client id, request timestamp)`.
pub type ReqId = (u64, u64);

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Message kind for `on_message`, else `timer` / `submit` / `start`
    /// (or `op` for the load generator's per-request root span).
    pub handler: &'static str,
    /// Nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the sink's epoch.
    pub end_ns: u64,
    /// The request that caused the call, where known.
    pub req: Option<ReqId>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one node recorded.
#[derive(Clone, Debug, Default)]
pub struct NodeLog {
    /// The node's spans, in call order.
    pub spans: Vec<Span>,
    /// Messages handed to the driver (one per destination).
    pub msgs_out: u64,
    /// SPECORDER messages sent (one per broadcast, not per destination).
    pub specorders: u64,
    /// Client requests carried by those SPECORDERs.
    pub specorder_reqs: u64,
}

/// The in-memory trace of one run: a shared epoch, an on/off switch, and
/// one uncontended log per node.
#[derive(Debug)]
pub struct TraceSink {
    enabled: AtomicBool,
    epoch: Instant,
    nodes: Mutex<Vec<(String, Arc<Mutex<NodeLog>>)>>,
}

/// One node's handle into a [`TraceSink`].
#[derive(Clone, Debug)]
pub struct NodeTrace {
    sink: Arc<TraceSink>,
    log: Arc<Mutex<NodeLog>>,
}

impl TraceSink {
    /// Creates a sink that starts disabled.
    pub fn new() -> Arc<Self> {
        Arc::new(TraceSink {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            nodes: Mutex::default(),
        })
    }

    /// Switches recording on or off for every node at once.
    pub fn set_enabled(&self, on: bool) {
        // A statistic switch: a call racing the flip is recorded or not,
        // either is fine.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since the sink's epoch.
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Registers a node under `label` (e.g. `R0`, `c1`, `load:c0`).
    pub fn register(self: &Arc<Self>, label: impl Into<String>) -> NodeTrace {
        let log = Arc::new(Mutex::new(NodeLog::default()));
        self.nodes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((label.into(), Arc::clone(&log)));
        NodeTrace {
            sink: Arc::clone(self),
            log,
        }
    }

    /// Takes every node's log, leaving them empty (labels stay
    /// registered).
    pub fn drain(&self) -> Vec<(String, NodeLog)> {
        self.nodes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(label, log)| {
                let taken =
                    std::mem::take(&mut *log.lock().unwrap_or_else(PoisonError::into_inner));
                (label.clone(), taken)
            })
            .collect()
    }

    /// Forgets every registered node (between simulator passes).
    pub fn clear(&self) {
        self.nodes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl NodeTrace {
    fn on(&self) -> bool {
        self.sink.is_enabled()
    }

    fn now_ns(&self) -> u64 {
        self.sink.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span measured by the caller (the live load generator's
    /// per-request root span). No-op while the sink is disabled.
    pub fn record(&self, handler: &'static str, start: Instant, end: Instant, req: Option<ReqId>) {
        if !self.on() {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.sink.epoch).as_nanos() as u64;
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spans
            .push(Span {
                handler,
                start_ns: since(start),
                end_ns: since(end),
                req,
            });
    }
}

/// The request a message belongs to, where it says so. A batched
/// SPECORDER is attributed to the first request it carries; SPECACK and
/// COMMITAGG name an instance, not a request.
pub fn req_id(msg: &KvMsg) -> Option<ReqId> {
    let id = |client: ezbft_smr::ClientId, ts: ezbft_smr::Timestamp| (client.as_u64(), ts.0);
    match msg {
        Msg::Request(r) => Some(id(r.client, r.ts)),
        Msg::ResendReq(r) => Some(id(r.req.client, r.req.ts)),
        Msg::SpecOrder(so) => so.reqs.first().map(|r| id(r.client, r.ts)),
        Msg::SpecReply(sr) => Some(id(sr.body.client, sr.body.ts)),
        Msg::CommitFast(cf) => cf.cc.body().map(|b| id(b.client, b.ts)),
        Msg::Commit(c) => c.cc.first().map(|sr| id(sr.body.client, sr.body.ts)),
        Msg::CommitReply(cr) => Some(id(cr.client, cr.ts)),
        Msg::CommitConfirm(cc) => Some(id(cc.client, cc.ts)),
        _ => None,
    }
}

/// A protocol node plus (optionally) its trace handle.
#[derive(Debug)]
pub struct Timed<N> {
    inner: N,
    trace: Option<NodeTrace>,
}

impl<N> Timed<N> {
    /// Wraps `inner` with tracing off for good.
    pub fn plain(inner: N) -> Self {
        Timed { inner, trace: None }
    }

    /// Wraps `inner`, recording into `trace` whenever its sink is enabled.
    pub fn traced(inner: N, trace: NodeTrace) -> Self {
        Timed {
            inner,
            trace: Some(trace),
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Unwraps the node.
    pub fn into_inner(self) -> N {
        self.inner
    }
}

impl<N: ProtocolNode<Message = KvMsg, Response = KvResponse>> Timed<N> {
    /// Runs `call` on the wrapped node; when tracing is on, records its
    /// span and tallies the actions it queued.
    fn timed(
        &mut self,
        handler: &'static str,
        req: Option<ReqId>,
        out: &mut Out,
        call: impl FnOnce(&mut N, &mut Out),
    ) {
        let Some(trace) = self.trace.as_ref().filter(|t| t.on()) else {
            call(&mut self.inner, out);
            return;
        };
        let queued_before = out.len();
        let start_ns = trace.now_ns();
        call(&mut self.inner, out);
        let end_ns = trace.now_ns();
        let mut log = trace.log.lock().unwrap_or_else(PoisonError::into_inner);
        // A submit learns its request id from the REQUEST it just queued.
        let mut req = req;
        for action in &out.as_slice()[queued_before..] {
            let (msg, fan_out) = match action {
                Action::Send { msg, .. } => (msg, 1),
                Action::Broadcast { peers, msg } => (&**msg, peers.len() as u64),
                _ => continue,
            };
            log.msgs_out += fan_out;
            match msg {
                Msg::SpecOrder(so) => {
                    log.specorders += 1;
                    log.specorder_reqs += so.reqs.len() as u64;
                }
                Msg::Request(_) if req.is_none() => req = req_id(msg),
                _ => {}
            }
        }
        log.spans.push(Span {
            handler,
            start_ns,
            end_ns,
            req,
        });
    }
}

impl<N: ProtocolNode<Message = KvMsg, Response = KvResponse> + 'static> ProtocolNode for Timed<N> {
    type Message = KvMsg;
    type Response = KvResponse;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self, out: &mut Out) {
        self.timed("start", None, out, |n, out| n.on_start(out));
    }

    fn on_message(&mut self, from: NodeId, msg: KvMsg, out: &mut Out) {
        let (kind, req) = match &self.trace {
            Some(_) => (msg.kind(), req_id(&msg)),
            None => ("", None),
        };
        self.timed(kind, req, out, |n, out| n.on_message(from, msg, out));
    }

    fn on_timer(&mut self, id: TimerId, out: &mut Out) {
        self.timed("timer", None, out, |n, out| n.on_timer(id, out));
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl<N> ClientNode for Timed<N>
where
    N: ClientNode<Message = KvMsg, Response = KvResponse, Command = KvOp> + 'static,
{
    type Command = KvOp;

    fn submit(&mut self, cmd: KvOp, out: &mut Out) {
        self.timed("submit", None, out, |n, out| n.submit(cmd, out));
    }

    fn in_flight(&self) -> bool {
        self.inner.in_flight()
    }
}
