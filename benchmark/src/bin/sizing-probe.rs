//! Reproduces the simulator sizing findings of `README.md`: passes of the
//! `sim_contended` cluster at another contention or pass length. Prints
//! one line per pass for people; never a benchmark result line.
//!
//! `sizing-probe [--contention <pct>] [--requests <per client>] [--seed <u64>] [--passes <n>]`

use std::process::ExitCode;

use ezbft_benchmark::sim::run_pass;
use ezbft_benchmark::spec::{workload, WorkloadSpec};
use ezbft_benchmark::stats::{mean_u64, quantile_u64};

fn main() -> ExitCode {
    let Some(WorkloadSpec::Sim(mut spec)) = workload("sim_contended") else {
        unreachable!("sim_contended is a simulator workload");
    };
    let (mut seed, mut passes) = (1u64, 10u64);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let parsed = match pair {
            [flag, value] => value.parse::<u64>().ok().map(|v| (flag.as_str(), v)),
            _ => None,
        };
        match parsed {
            Some(("--contention", v)) => spec.contention_pct = v as u32,
            Some(("--requests", v)) => spec.requests_per_client = v as usize,
            Some(("--seed", v)) => seed = v,
            Some(("--passes", v)) => passes = v,
            _ => {
                eprintln!(
                    "usage: sizing-probe [--contention <pct>] [--requests <per client>] \
                     [--seed <u64>] [--passes <n>]"
                );
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "{} % hot-key writes, {} requests per client per pass",
        spec.contention_pct, spec.requests_per_client
    );
    for seed in seed..seed + passes {
        let pass = run_pass(&spec, seed, None);
        println!(
            "seed {seed}: delivered {}/{}  fast {:.1} %  virtual p50 {:.0} us  mean {:.0} us  \
             lagging replicas {}  misordered writes {}  wall {:.0} ms  {}",
            pass.delivered(),
            pass.attempted,
            100.0 * pass.fast as f64 / pass.delivered().max(1) as f64,
            quantile_u64(&pass.lat_us, 0.5),
            mean_u64(&pass.lat_us),
            pass.lagging_replicas,
            pass.misordered_writes,
            pass.wall_ns as f64 / 1e6,
            pass.problems.join("; "),
        );
    }
    ExitCode::SUCCESS
}
