//! The traced run of one workload: the `layers` pass, then the workload
//! itself with every node wrapped in a recording [`Timed`], the counting
//! allocator on and (live) a recorder attached — preceded by a reference
//! phase with all of that switched off, so the tracing overhead is
//! reported rather than guessed.
//!
//! [`Timed`]: crate::timed::Timed

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;

use ezbft_obs::Stage;

use crate::alloc;
use crate::e2e::RunArgs;
use crate::json::quote;
use crate::layers;
use crate::live::{LiveCluster, LiveSpec, LiveTracing};
use crate::proc;
use crate::report::RunOutput;
use crate::sim::{run_pass, SimSpec};
use crate::spec::{per_layer, WorkloadSpec};
use crate::stats::{median, quantile_u64};
use crate::timed::{NodeLog, ReqId, TraceSink};

/// Requests whose spans are written out at the end of a traced run.
const SPANS_KEPT_REQUESTS: usize = 5_000;
/// Share of the `--seconds` budget spent in the untraced reference phase
/// and in the traced phase (the `layers` pass takes the rest).
const REFERENCE_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.35;

/// Per-layer figures by name; anything not set reads 0.
type Figures = HashMap<&'static str, f64>;

/// Runs the `layers` pass and the traced run of `spec`; writes the spans
/// of the last requests to `out_dir/trace_<workload>.json`.
pub fn run(spec: &WorkloadSpec, args: RunArgs, out_dir: &Path) -> RunOutput {
    let mut figures: Figures = layers::run(args.quick).into_iter().collect();
    let (mut output, traced, spans) = match spec {
        WorkloadSpec::Live(live) => run_live(live, args, &figures),
        WorkloadSpec::Sim(sim) => run_sim(sim, args),
    };
    figures.extend(traced);
    // `layers::NAMES` is a hand-kept copy of what `layers::run` pushes.
    for (name, _) in layers::NAMES {
        if !figures.contains_key(name) {
            output.correct = false;
            output
                .notes
                .push(format!("the layers pass did not report {name}"));
        }
    }
    output.metrics = per_layer()
        .into_iter()
        .map(|(name, unit)| (name, figures.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    match write_spans(out_dir, spec.name(), args.seed, &spans) {
        Ok(path) => output.notes.push(format!("spans written to {path}")),
        Err(e) => {
            output.correct = false;
            output.notes.push(format!("could not write spans: {e}"));
        }
    }
    output
}

/// Handler spans folded into the numbers the report needs.
#[derive(Default)]
struct Folded {
    /// Durations per `(role, handler)`; role is `replica` or `client`.
    durations: HashMap<(&'static str, &'static str), Vec<u64>>,
    replica_ns: u64,
    client_ns: u64,
    msgs_out: u64,
    specorders: u64,
    specorder_reqs: u64,
}

impl Folded {
    fn absorb(&mut self, label: &str, log: &NodeLog) {
        let role = match label.as_bytes().first() {
            Some(b'R') => "replica",
            Some(b'c') => "client",
            _ => return, // the load generator's root spans
        };
        for span in &log.spans {
            self.durations
                .entry((role, span.handler))
                .or_default()
                .push(span.dur_ns());
            match role {
                "replica" => self.replica_ns += span.dur_ns(),
                _ => self.client_ns += span.dur_ns(),
            }
        }
        self.msgs_out += log.msgs_out;
        self.specorders += log.specorders;
        self.specorder_reqs += log.specorder_reqs;
    }

    fn p50_ns(&self, role: &'static str, handler: &'static str) -> f64 {
        self.durations
            .get(&(role, handler))
            .map_or(0.0, |d| quantile_u64(d, 0.5))
    }

    /// The figures every workload reports, given the traced phase's
    /// completed operation count.
    fn figures(&self, ops: f64) -> Figures {
        let mut timers: Vec<u64> = Vec::new();
        for role in ["replica", "client"] {
            timers.extend(self.durations.get(&(role, "timer")).into_iter().flatten());
        }
        Figures::from([
            (
                "core.step_us_per_op.replica",
                self.replica_ns as f64 / 1e3 / ops,
            ),
            (
                "core.step_us_per_op.client",
                self.client_ns as f64 / 1e3 / ops,
            ),
            ("core.msgs_per_op", self.msgs_out as f64 / ops),
            (
                "core.reqs_per_specorder",
                self.specorder_reqs as f64 / self.specorders.max(1) as f64,
            ),
            ("core.step_ns.request", self.p50_ns("replica", "request")),
            (
                "core.step_ns.specorder",
                self.p50_ns("replica", "spec-order"),
            ),
            (
                "core.step_ns.specreply",
                self.p50_ns("client", "spec-reply"),
            ),
            (
                "core.step_ns.commitfast",
                self.p50_ns("replica", "commit-fast"),
            ),
            ("core.step_ns.timer", quantile_u64(&timers, 0.5)),
            ("core.step_ns.specack", self.p50_ns("replica", "spec-ack")),
            (
                "core.step_ns.commitagg",
                self.p50_ns("replica", "commit-agg"),
            ),
        ])
    }
}

/// The spans kept for the trace file: node labels plus `(node, span)`.
#[derive(Default)]
struct KeptSpans {
    nodes: Vec<String>,
    spans: Vec<(usize, crate::timed::Span)>,
}

impl KeptSpans {
    fn push_log(&mut self, label: &str, log: &NodeLog, keep: impl Fn(&crate::timed::Span) -> bool) {
        let node = match self.nodes.iter().position(|n| n == label) {
            Some(i) => i,
            None => {
                self.nodes.push(label.to_string());
                self.nodes.len() - 1
            }
        };
        self.spans
            .extend(log.spans.iter().filter(|s| keep(s)).map(|s| (node, *s)));
    }
}

fn run_live(spec: &LiveSpec, args: RunArgs, layer: &Figures) -> (RunOutput, Figures, KeptSpans) {
    let tracing = LiveTracing::new();
    let mut cluster = LiveCluster::set_up(spec, args.seed, args.quick, Some(&tracing));
    let setup = cluster.setup;

    // Reference phase: same cluster, same wrappers, everything off.
    let reference = cluster.drive(args.scaled(spec.ops_per_budget_second as f64 * REFERENCE_SHARE));
    let reference_rate = reference.ops_per_s();

    tracing.sink.set_enabled(true);
    alloc::set_counting(true);
    let (allocs0, bytes0) = alloc::counted();
    let usage0 = proc::usage();
    let traced = cluster.drive(args.scaled(spec.ops_per_budget_second as f64 * TRACED_SHARE));
    let used = proc::usage().since(&usage0);
    let (allocs1, bytes1) = alloc::counted();
    alloc::set_counting(false);
    tracing.sink.set_enabled(false);
    let threads = proc::threads();
    let traced_rate = traced.ops_per_s();

    let failed = reference.failed + traced.failed;
    let verdict = cluster.shut_down_and_verify(failed);
    let ops = traced.completed().max(1) as f64;

    let logs = tracing.sink.drain();
    let mut folded = Folded::default();
    for (label, log) in &logs {
        folded.absorb(label, log);
    }
    let mut figures = folded.figures(ops);
    let cpu_us_per_op = used.cpu_us as f64 / ops;
    let handler_us_per_op = (folded.replica_ns + folded.client_ns) as f64 / 1e3 / ops;
    let lat_p50_us = reference.lat_us(0.5);
    figures.extend([
        ("core.fast_path_ratio", traced.fast as f64 / ops),
        ("core.owner_changes", verdict.owner_changes as f64),
        ("core.client_retries", verdict.client_retries as f64),
        ("proc.allocs_per_op", (allocs1 - allocs0) as f64 / ops),
        ("proc.alloc_bytes_per_op", (bytes1 - bytes0) as f64 / ops),
        ("client.lat_p99_us", reference.lat_us(0.99)),
        (
            "trace.overhead_pct",
            100.0 * (reference_rate - traced_rate) / reference_rate.max(1e-9),
        ),
        (
            "net.frames_per_op",
            tracing.net.frames_out.load(Ordering::Relaxed) as f64 / ops,
        ),
        (
            "net.bytes_per_op",
            tracing.net.bytes_out.load(Ordering::Relaxed) as f64 / ops,
        ),
        ("transport.cpu_us_per_op", cpu_us_per_op - handler_us_per_op),
        ("proc.ctx_switches_per_op", used.ctx_switches as f64 / ops),
        ("proc.threads", threads as f64),
        ("setup.keygen_s", setup.keygen_s),
        ("setup.spawn_connect_s", setup.spawn_connect_s),
        ("setup.warmup_s", setup.warmup_s),
    ]);
    figures.extend(stage_p50s(&tracing));

    // What the layer costs explain of a fast-path request's latency: three
    // one-way hops (client → leader → followers → client) at the measured
    // no-protocol hop cost for this payload size, the handlers on that
    // path, and encoding + decoding the SPECORDER (the hop figure already
    // carries a payload-sized frame, not the message envelope).
    let sized = |small: &'static str, large: &'static str| {
        let name = if spec.value_size > 1_024 {
            large
        } else {
            small
        };
        layer.get(name).copied().unwrap_or(0.0)
    };
    let explained_us = 3.0 * sized("transport.hop_rtt_us", "transport.hop_rtt_us.4k") / 2.0
        + (folded.p50_ns("client", "submit")
            + folded.p50_ns("replica", "request")
            + folded.p50_ns("replica", "spec-order")
            + 4.0 * folded.p50_ns("client", "spec-reply")
            + sized("wire.encode_ns.specorder_32", "wire.encode_ns.specorder_4k")
            + sized("wire.decode_ns.specorder_32", "wire.decode_ns.specorder_4k"))
            / 1e3;
    figures.insert(
        "layers.residual_pct",
        100.0 * (lat_p50_us - explained_us) / lat_p50_us.max(1e-9),
    );

    // Keep the spans of the last requests: their root spans name them.
    let mut roots: Vec<_> = logs
        .iter()
        .filter(|(label, _)| label.starts_with("load:"))
        .flat_map(|(_, log)| &log.spans)
        .collect();
    roots.sort_by_key(|s| s.end_ns);
    let last = &roots[roots.len().saturating_sub(SPANS_KEPT_REQUESTS)..];
    let wanted: HashSet<ReqId> = last.iter().filter_map(|s| s.req).collect();
    let window_start = last.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut kept = KeptSpans::default();
    for (label, log) in &logs {
        kept.push_log(label, log, |s| match s.req {
            Some(req) => wanted.contains(&req),
            None => s.start_ns >= window_start,
        });
    }

    let mut notes = verdict.problems.clone();
    let wrong = reference.wrong + traced.wrong;
    if wrong > 0 {
        notes.push(format!("{wrong} responses disagreed with the model"));
    }
    notes.push(format!(
        "reference phase {} ops at {reference_rate:.0}/s (lat p50 {lat_p50_us:.1} us), traced \
         phase {} ops at {traced_rate:.0}/s; residual explains {explained_us:.1} us",
        reference.completed(),
        traced.completed()
    ));
    let output = RunOutput {
        correct: verdict.ok() && wrong == 0,
        attempted: reference.attempted + traced.attempted,
        failed,
        metrics: Vec::new(),
        notes,
    };
    (output, figures, kept)
}

/// p50 of the client-visible stage intervals, from the lifecycle spans the
/// nodes recorded through their `with_recorder` hooks.
fn stage_p50s(tracing: &LiveTracing) -> Figures {
    // Telescoping sum of consecutive recorded intervals from `a` to `b`.
    fn interval(durs: &[(Stage, Stage, u64)], a: Stage, b: Stage) -> Option<u64> {
        let from = durs.iter().position(|d| d.0 == a)?;
        let to = durs.iter().position(|d| d.1 == b)?;
        (from <= to).then(|| durs[from..=to].iter().map(|d| d.2).sum())
    }
    let wanted = [
        (
            "obs.stage_us.submit-specorder_accept",
            Stage::Submit,
            Stage::SpecOrderAccept,
        ),
        (
            "obs.stage_us.specorder_accept-commit",
            Stage::SpecOrderAccept,
            Stage::Commit,
        ),
        (
            "obs.stage_us.commit-exec_done",
            Stage::Commit,
            Stage::ExecDone,
        ),
        (
            "obs.stage_us.exec_done-reply",
            Stage::ExecDone,
            Stage::Reply,
        ),
    ];
    let mut samples: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (_, span) in tracing.stages.spans() {
        // Requests cut by the phase boundary lack an end; skip them.
        if span.duration_us().is_none() {
            continue;
        }
        let durs = span.stage_durations();
        for (name, a, b) in wanted {
            if let Some(us) = interval(&durs, a, b) {
                samples.entry(name).or_default().push(us);
            }
        }
    }
    samples
        .into_iter()
        .map(|(name, v)| (name, quantile_u64(&v, 0.5)))
        .collect()
}

fn run_sim(spec: &SimSpec, args: RunArgs) -> (RunOutput, Figures, KeptSpans) {
    let sink = TraceSink::new();
    let passes =
        args.scaled(spec.passes_per_budget_second * (REFERENCE_SHARE + TRACED_SHARE) / 2.0);
    let kept_passes = (SPANS_KEPT_REQUESTS as u64 / spec.ops_per_pass()).max(1);
    let first_seed = args.seed.wrapping_add(spec.warmup_passes);

    let mut problems = Vec::new();
    let mut folded = Folded::default();
    let mut kept = KeptSpans::default();
    let (mut reference_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut lat_us, mut attempted, mut delivered) = (Vec::new(), 0, 0);
    let (mut lagging, mut misordered) = (0, 0);
    let (mut ops, mut fast, mut owner_changes, mut retries) = (0u64, 0, 0, 0);
    let (mut allocs, mut bytes, mut keygen_ns) = (0, 0, 0);
    for i in 0..passes {
        // The same seed untraced, then traced: identical work.
        let seed = first_seed.wrapping_add(i);
        let reference = run_pass(spec, seed, None);
        reference_rates.push(pass_rate(&reference));
        lat_us.extend_from_slice(&reference.lat_us);

        sink.set_enabled(true);
        alloc::set_counting(true);
        let (allocs0, bytes0) = alloc::counted();
        let traced = run_pass(spec, seed, Some(&sink));
        let (allocs1, bytes1) = alloc::counted();
        alloc::set_counting(false);
        sink.set_enabled(false);
        traced_rates.push(pass_rate(&traced));
        allocs += allocs1 - allocs0;
        bytes += bytes1 - bytes0;
        if traced.lat_us != reference.lat_us {
            problems.push(format!(
                "tracing changed the outcome of the pass with seed {seed}"
            ));
        }
        for pass in [&reference, &traced] {
            attempted += pass.attempted;
            delivered += pass.delivered();
            problems.extend(pass.problems.iter().cloned());
        }
        ops += traced.delivered();
        fast += traced.fast;
        owner_changes += traced.owner_changes;
        retries += traced.client_retries;
        lagging += traced.lagging_replicas;
        misordered += traced.misordered_writes;
        keygen_ns += traced.keygen_ns;
        for (label, log) in sink.drain() {
            folded.absorb(&label, &log);
            if i + kept_passes >= passes {
                kept.push_log(&format!("pass{i}:{label}"), &log, |_| true);
            }
        }
    }
    let ops_f = ops.max(1) as f64;
    let reference_rate = median(&mut reference_rates);
    let traced_rate = median(&mut traced_rates);
    let mut figures = folded.figures(ops_f);
    figures.extend([
        ("core.fast_path_ratio", fast as f64 / ops_f),
        ("core.owner_changes", owner_changes as f64),
        ("core.client_retries", retries as f64),
        ("core.lagging_replicas", lagging as f64),
        ("core.misordered_writes", misordered as f64),
        ("proc.allocs_per_op", allocs as f64 / ops_f),
        ("proc.alloc_bytes_per_op", bytes as f64 / ops_f),
        ("client.lat_p99_us", quantile_u64(&lat_us, 0.99)),
        (
            "trace.overhead_pct",
            100.0 * (reference_rate - traced_rate) / reference_rate.max(1e-9),
        ),
        ("proc.threads", proc::threads() as f64),
        ("setup.keygen_s", keygen_ns as f64 / 1e9 / passes as f64),
    ]);
    let correct = problems.is_empty();
    let mut notes = problems;
    notes.push(format!(
        "{passes} passes untraced at {reference_rate:.0} ops/s, the same seeds traced at \
         {traced_rate:.0} ops/s; client.lat_p99_us on the virtual clock"
    ));
    let output = RunOutput {
        correct,
        attempted,
        failed: attempted - delivered,
        metrics: Vec::new(),
        notes,
    };
    (output, figures, kept)
}

/// Delivered requests per wall-clock second of one pass.
fn pass_rate(pass: &crate::sim::Pass) -> f64 {
    pass.delivered() as f64 * 1e9 / pass.wall_ns.max(1) as f64
}

/// Writes the kept spans as one JSON document; returns its path.
fn write_spans(
    out_dir: &Path,
    workload: &str,
    seed: u64,
    kept: &KeptSpans,
) -> std::io::Result<String> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("trace_{workload}.json"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let nodes: Vec<String> = kept.nodes.iter().map(|n| quote(n)).collect();
    write!(
        file,
        "{{\"workload\": {}, \"seed\": {seed}, \"clock\": \"wall ns since the trace epoch\", \
         \"columns\": [\"node\", \"handler\", \"start_ns\", \"end_ns\", \"client\", \"ts\"], \
         \"nodes\": [{}], \"spans\": [",
        quote(workload),
        nodes.join(", ")
    )?;
    for (i, (node, span)) in kept.spans.iter().enumerate() {
        let (client, ts) = match span.req {
            Some((client, ts)) => (client.to_string(), ts.to_string()),
            None => ("null".to_string(), "null".to_string()),
        };
        write!(
            file,
            "{}\n[{node}, {}, {}, {}, {client}, {ts}]",
            if i == 0 { "" } else { "," },
            quote(span.handler),
            span.start_ns,
            span.end_ns
        )?;
    }
    writeln!(file, "\n]}}")?;
    file.flush()?;
    Ok(path.display().to_string())
}
