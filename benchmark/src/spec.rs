//! The frozen definition of the benchmark: workloads, their sizes, and
//! the names and units of every metric. `BENCHMARK.json` mirrors this
//! file; `tests/contract.rs` checks that the two agree.

use ezbft_crypto::CryptoKind;
use ezbft_smr::Micros;

use crate::live::LiveSpec;
use crate::sim::SimSpec;

/// One workload.
#[derive(Clone, Copy, Debug)]
pub enum WorkloadSpec {
    /// A real cluster over TCP loopback.
    Live(LiveSpec),
    /// Passes of the deterministic simulator.
    Sim(SimSpec),
}

impl WorkloadSpec {
    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Live(s) => s.name,
            WorkloadSpec::Sim(s) => s.name,
        }
    }
}

// Op counts were sized once on the 2-core sandbox at the seed commit so
// that `--seconds 20` gives a timed phase of about 20 s, and are frozen:
// fixed work is what makes `rss_peak_mb` (replica logs grow per op) and the
// virtual-clock metrics comparable across commits.

/// The four workloads, in reporting order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec::Live(LiveSpec {
        name: "live_fast",
        value_size: 32,
        read_fraction: 0.0,
        warmup_ops: 1_500,
        ops_per_budget_second: 3_100,
    }),
    WorkloadSpec::Live(LiveSpec {
        name: "live_large",
        value_size: 4_096,
        read_fraction: 0.5,
        warmup_ops: 400,
        ops_per_budget_second: 980,
    }),
    WorkloadSpec::Sim(SimSpec {
        name: "sim_contended",
        crypto: CryptoKind::Mac,
        clients_per_region: 2,
        requests_per_client: 100,
        contention_pct: 50,
        batch_size: 1,
        batch_delay: Micros::ZERO,
        commit_aggregation: false,
        compact_certs: false,
        warmup_passes: 3,
        passes_per_budget_second: 6.0,
    }),
    WorkloadSpec::Sim(SimSpec {
        name: "sim_batched",
        crypto: CryptoKind::Agg,
        clients_per_region: 8,
        requests_per_client: 100,
        contention_pct: 2,
        batch_size: 8,
        batch_delay: Micros::from_millis(2),
        commit_aggregation: true,
        compact_certs: true,
        warmup_passes: 2,
        passes_per_budget_second: 2.5,
    }),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.into_iter().find(|w| w.name() == name)
}

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// `(name, unit)` of every end-to-end metric, the same on all workloads.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_wan_mean_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_peak_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric from the traced run, in
/// reporting order (the `layers` pass adds [`crate::layers::NAMES`]).
/// A metric that does not apply to a workload reads 0 there.
pub const TRACED: [(&str, &str); 33] = [
    ("core.step_us_per_op.replica", "us"),
    ("core.step_us_per_op.client", "us"),
    ("core.msgs_per_op", "count"),
    ("core.fast_path_ratio", "ratio"),
    ("core.reqs_per_specorder", "count"),
    ("core.owner_changes", "count"),
    ("core.client_retries", "count"),
    ("core.lagging_replicas", "count"),
    ("core.misordered_writes", "count"),
    ("proc.allocs_per_op", "count"),
    ("proc.alloc_bytes_per_op", "B"),
    ("client.lat_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("net.frames_per_op", "count"),
    ("net.bytes_per_op", "B"),
    ("transport.cpu_us_per_op", "us"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.threads", "count"),
    ("obs.stage_us.submit-specorder_accept", "us"),
    ("obs.stage_us.specorder_accept-commit", "us"),
    ("obs.stage_us.commit-exec_done", "us"),
    ("obs.stage_us.exec_done-reply", "us"),
    ("setup.keygen_s", "s"),
    ("setup.spawn_connect_s", "s"),
    ("setup.warmup_s", "s"),
    ("core.step_ns.request", "ns"),
    ("core.step_ns.specorder", "ns"),
    ("core.step_ns.specreply", "ns"),
    ("core.step_ns.commitfast", "ns"),
    ("core.step_ns.timer", "ns"),
    ("core.step_ns.specack", "ns"),
    ("core.step_ns.commitagg", "ns"),
    ("layers.residual_pct", "%"),
];

/// `(name, unit)` of every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    crate::layers::NAMES.into_iter().chain(TRACED).collect()
}
