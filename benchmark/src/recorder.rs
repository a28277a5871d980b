//! The telemetry sink attached to every node of a traced live cluster
//! through the public `with_recorder` / `spawn_observed` hooks.
//!
//! It keeps two things and drops the rest: the transport's frame/byte
//! counters (as four atomics shared by the cluster) and the request
//! lifecycle stages (forwarded to one shared [`MemRecorder`]). Each TCP
//! driver stamps stages on a clock that starts when its own thread
//! starts, so every node's recorder carries that clock's offset from the
//! trace epoch and re-bases the stamps onto it; without this, intervals
//! that cross nodes (submit → specorder_accept, exec_done → reply) would
//! be off by the spawn order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ezbft_obs::{MemRecorder, Recorder, SpanKey, Stage};

use crate::timed::TraceSink;

/// Cluster-wide transport counters (all relaxed: statistics only).
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Frames handed to peer writers.
    pub frames_out: AtomicU64,
    /// Bytes of those frames.
    pub bytes_out: AtomicU64,
}

/// One node's recorder.
#[derive(Debug)]
pub struct NodeRecorder {
    sink: Arc<TraceSink>,
    net: Arc<NetCounters>,
    stages: Arc<MemRecorder>,
    /// Microseconds to add to this node's driver clock to land on the
    /// trace epoch.
    offset_us: AtomicU64,
}

impl NodeRecorder {
    /// A recorder active whenever `sink` is enabled.
    pub fn new(sink: Arc<TraceSink>, net: Arc<NetCounters>, stages: Arc<MemRecorder>) -> Self {
        NodeRecorder {
            sink,
            net,
            stages,
            offset_us: AtomicU64::new(0),
        }
    }

    /// Sets the clock offset from one simultaneous reading of both
    /// clocks: the driver's `Actions::now()` and the trace epoch's
    /// elapsed time. Drivers start after the epoch, so it is positive.
    pub fn align(&self, driver_now_us: u64) {
        let epoch_now_us = self.sink.elapsed_us();
        self.offset_us.store(
            epoch_now_us.saturating_sub(driver_now_us),
            Ordering::Relaxed,
        );
    }
}

impl Recorder for NodeRecorder {
    fn enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    fn counter(&self, name: &'static str, delta: u64) {
        if !self.enabled() {
            return;
        }
        match name {
            "net.frames_out" => self.net.frames_out.fetch_add(delta, Ordering::Relaxed),
            "net.bytes_out" => self.net.bytes_out.fetch_add(delta, Ordering::Relaxed),
            _ => 0,
        };
    }

    fn counter_kind(&self, _name: &'static str, _kind: &str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: u64) {}
    fn observe(&self, _name: &'static str, _value: u64) {}

    fn stage(&self, key: SpanKey, stage: Stage, at_us: u64) {
        if self.enabled() {
            let offset = self.offset_us.load(Ordering::Relaxed);
            self.stages.stage(key, stage, at_us + offset);
        }
    }

    fn event(&self, _name: &'static str, _detail: &str, _at_us: u64) {}
}
