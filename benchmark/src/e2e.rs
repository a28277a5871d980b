//! The end-to-end run of one workload: tracing off, fixed work, medians.

use std::time::Instant;

use crate::live::{LiveCluster, LiveSpec};
use crate::proc;
use crate::report::RunOutput;
use crate::sim::{run_pass, wan_replay, SimSpec};
use crate::spec::{WorkloadSpec, SETUPS};
use crate::stats::{mean_u64, median, quantile_u64};

/// Command-line knobs shared by both binaries.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Every input derives from this.
    pub seed: u64,
    /// Scales the timed phase: the op count is `seconds` × the workload's
    /// frozen per-second budget.
    pub seconds: u64,
    /// 1/20 of every op count — for smoke tests, never for reported
    /// numbers.
    pub quick: bool,
}

impl RunArgs {
    /// `per_second` × `seconds`, divided by 20 in quick mode, at least 2.
    pub fn scaled(&self, per_second: f64) -> u64 {
        let full = per_second * self.seconds as f64;
        ((if self.quick { full / 20.0 } else { full }).round() as u64).max(2)
    }
}

/// Runs `spec` end to end.
pub fn run(spec: &WorkloadSpec, args: RunArgs) -> RunOutput {
    match spec {
        WorkloadSpec::Live(live) => run_live(live, args),
        WorkloadSpec::Sim(sim) => run_sim(sim, args),
    }
}

fn run_live(spec: &LiveSpec, args: RunArgs) -> RunOutput {
    let mut notes = Vec::new();
    // The first set-up carries the timed phase, so that the peak resident
    // set is that of one cluster and its fixed work.
    let mut cluster = LiveCluster::set_up(spec, args.seed, args.quick, None);
    let mut setups = vec![cluster.setup.total_s()];
    let phase = cluster.drive(args.scaled(spec.ops_per_budget_second as f64));
    let rss_peak_mib = proc::rss_peak_mib();
    let verdict = cluster.shut_down_and_verify(phase.failed);
    let mut correct = verdict.ok() && phase.wrong == 0;
    notes.extend(verdict.problems);
    if phase.wrong > 0 {
        notes.push(format!(
            "{} responses disagreed with the model",
            phase.wrong
        ));
    }
    // The remaining set-ups, each complete, torn down and checked at once.
    while setups.len() < SETUPS {
        let fresh = LiveCluster::set_up(spec, args.seed, args.quick, None);
        setups.push(fresh.setup.total_s());
        let verdict = fresh.shut_down_and_verify(0);
        correct &= verdict.ok();
        notes.extend(verdict.problems);
    }

    let replay = wan_replay(spec.workload(), args.seed);
    correct &= replay.problems.is_empty() && replay.delivered() == replay.attempted;
    notes.extend(replay.problems.iter().cloned());

    notes.push(format!(
        "clock: wall for lat_p50_us, {} samples; virtual (the operation mix replayed by one \
         client per region under Topology::exp1) for lat_wan_mean_us, {} of {} samples; timed \
         phase {:.2} s, plain rate {:.1}/s; set-ups {setups:.3?} s; nodes dealt onto CPUs {:?}",
        phase.completed(),
        replay.delivered(),
        replay.attempted,
        phase.wall_ns as f64 / 1e9,
        phase.completed() as f64 * 1e9 / phase.wall_ns.max(1) as f64,
        proc::allowed_cpus(),
    ));
    RunOutput {
        correct,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: vec![
            ("ops_per_s", phase.ops_per_s(), "1/s"),
            ("lat_p50_us", phase.lat_us(0.5), "us"),
            ("lat_wan_mean_us", mean_u64(&replay.lat_us), "us"),
            ("cpu_us_per_op", phase.cpu_us_per_op(), "us"),
            ("rss_peak_mb", rss_peak_mib, "MiB"),
            ("setup_s", median(&mut setups), "s"),
        ],
        notes,
    }
}

fn run_sim(spec: &SimSpec, args: RunArgs) -> RunOutput {
    let mut problems = Vec::new();
    // A set-up is the fixed warm-up passes (each pass builds its own
    // cluster, so there is nothing else to set up).
    let warmup = if args.quick { 1 } else { spec.warmup_passes };
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        for i in 0..warmup {
            problems.extend(run_pass(spec, args.seed.wrapping_add(i), None).problems);
        }
        setups.push(start.elapsed().as_secs_f64());
    }

    let passes = args.scaled(spec.passes_per_budget_second);
    let first_seed = args.seed.wrapping_add(warmup);
    let timed: Vec<_> = (0..passes)
        .map(|i| run_pass(spec, first_seed.wrapping_add(i), None))
        .collect();
    let rss_peak_mib = proc::rss_peak_mib();

    // Same seed, same pass: the virtual clock and the message count must
    // repeat exactly.
    let again = run_pass(spec, first_seed, None);
    if again.lat_us != timed[0].lat_us || again.msgs != timed[0].msgs {
        problems.push(format!(
            "pass with seed {first_seed} did not repeat exactly"
        ));
    }

    let mut lat_us = Vec::new();
    let (mut attempted, mut delivered, mut lagging, mut misordered) = (0, 0, 0, 0);
    let (mut rates, mut cpu_us_per_op) = (Vec::new(), Vec::new());
    for pass in &timed {
        attempted += pass.attempted;
        delivered += pass.delivered();
        lagging += pass.lagging_replicas;
        misordered += pass.misordered_writes;
        lat_us.extend_from_slice(&pass.lat_us);
        rates.push(pass.delivered() as f64 * 1e9 / pass.wall_ns.max(1) as f64);
        cpu_us_per_op.push(pass.cpu_us as f64 / pass.delivered().max(1) as f64);
        problems.extend(pass.problems.iter().cloned());
    }
    let correct = problems.is_empty();
    let mut notes = problems;
    notes.push(format!(
        "clock: virtual (Topology::exp1 one-way delays, no cost model) for lat_p50_us and \
         lat_wan_mean_us over {} samples; wall for the rest, medians over {passes} passes; \
         {lagging} replica-passes ended short of final execution, {misordered} conflicting \
         writes applied in different orders (seed-commit defects, tolerated below 1 % of a \
         pass); set-ups {setups:.3?} s",
        lat_us.len()
    ));
    RunOutput {
        correct,
        attempted,
        failed: attempted - delivered,
        metrics: vec![
            ("ops_per_s", median(&mut rates), "1/s"),
            ("lat_p50_us", quantile_u64(&lat_us, 0.5), "us"),
            ("lat_wan_mean_us", mean_u64(&lat_us), "us"),
            ("cpu_us_per_op", median(&mut cpu_us_per_op), "us"),
            ("rss_peak_mb", rss_peak_mib, "MiB"),
            ("setup_s", median(&mut setups), "s"),
        ],
        notes,
    }
}
