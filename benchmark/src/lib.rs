//! The repo benchmark: four long, noise-bounded workloads (`live_fast`,
//! `live_large`, `sim_contended`, `sim_batched`) with an outside-in
//! per-layer trace. `README.md` beside this crate defines every metric,
//! says why each workload exists and lists the public entry points of the
//! repository the benchmark depends on.
//!
//! Two thin binaries share this library: `ezbft-benchmark` (end-to-end,
//! tracing off, system allocator) and `ezbft-benchmark-trace` (the
//! `layers` pass and the traced run, counting allocator installed). A
//! third, `sizing-probe`, reproduces the sizing findings and never prints
//! a result line.

pub mod alloc;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod live;
pub mod proc;
pub mod recorder;
pub mod report;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod traced;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use e2e::RunArgs;
use json::Json;
use report::RunOutput;
use spec::{WorkloadSpec, WORKLOADS};

const USAGE: &str = "usage: ezbft-benchmark[-trace] [--workload <name>] [--seed <u64>] \
[--seconds <n>] [--trace <0|1>] [--quick] [--out-dir <dir>] | --selfcheck [--seed <u64>] \
[--seconds <n>]";

/// Where `--selfcheck` reads the bounds, relative to the repository root
/// (`run.sh` changes to it).
const BENCHMARK_JSON: &str = "BENCHMARK.json";

struct Cli {
    workload: Option<WorkloadSpec>,
    args: RunArgs,
    trace: Option<bool>,
    selfcheck: bool,
    out_dir: PathBuf,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: 20,
            quick: false,
        },
        trace: None,
        selfcheck: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => cli.args.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The entry point of both binaries; `traced` says which one is running.
pub fn main_with(traced: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.trace.is_some_and(|t| t != traced) {
        eprintln!(
            "--trace {} is served by the other binary (benchmark/run.sh picks it): this is {}",
            u8::from(!traced),
            if traced {
                "ezbft-benchmark-trace"
            } else {
                "ezbft-benchmark"
            }
        );
        return ExitCode::from(2);
    }
    if cli.selfcheck {
        return selfcheck(&cli);
    }
    let mut all_correct = true;
    let chosen: Vec<WorkloadSpec> = cli.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    for workload in &chosen {
        let output = if traced {
            traced::run(workload, cli.args, &cli.out_dir)
        } else {
            e2e::run(workload, cli.args)
        };
        all_correct &= output.correct;
        eprint!("{}", output.to_table(workload.name()));
        // With --workload (how the driver runs it) the line is exactly
        // the contract's object; without, each line also names its
        // workload.
        match cli.workload {
            Some(_) => println!("{}", output.to_json_line()),
            None => println!(
                "{{\"workload\": {}, {}",
                json::quote(workload.name()),
                &output.to_json_line()[1..]
            ),
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness gate failed");
        ExitCode::FAILURE
    }
}

/// Parses a result line back into `(correct, failed, metric → value)`.
fn parse_result(line: &str) -> Result<RunOutput, String> {
    let doc = Json::parse(line)?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no {key}"))
    };
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("no metrics".to_string());
    };
    let mut out = RunOutput {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        ..RunOutput::default()
    };
    for (name, unit) in spec::END_TO_END {
        let value = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or(format!("no metric {name}"))?;
        out.metrics.push((name, value, unit));
    }
    Ok(out)
}

/// Runs every workload twice (forward, then in reverse order) in child
/// processes of this binary and compares each end-to-end metric of each
/// pair against its bound from `BENCHMARK.json`. `setup_s` is printed but
/// not held to it: five back-to-back set-ups fit inside one short spell of
/// the host, and the driver, too, holds only its ten-run medians to the
/// bound.
fn selfcheck(cli: &Cli) -> ExitCode {
    let bounds: Vec<(String, f64)> = match std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(doc) => doc
            .get("end_to_end")
            .map_or(&[][..], Json::items)
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect(),
        Err(e) => {
            eprintln!("cannot read {BENCHMARK_JSON}: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let run = |workload: &WorkloadSpec| -> Result<RunOutput, String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name(), "--trace", "0"])
            .args(["--seed", &cli.args.seed.to_string()])
            .args(["--seconds", &cli.args.seconds.to_string()]);
        if cli.args.quick {
            cmd.arg("--quick");
        }
        // `output` waits for the child to end.
        let done = cmd.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&done.stdout);
        let line = stdout.lines().last().ok_or("no output")?;
        let result = parse_result(line)?;
        if !done.status.success() || !result.correct {
            return Err(format!("run failed its gate ({})", done.status));
        }
        Ok(result)
    };
    let forward: Vec<_> = WORKLOADS.iter().map(&run).collect();
    let mut backward: Vec<_> = WORKLOADS.iter().rev().map(&run).collect();
    backward.reverse();

    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for ((workload, a), b) in WORKLOADS.iter().zip(forward).zip(backward) {
        let (a, b) = match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                ok = false;
                for e in [a.err(), b.err()].into_iter().flatten() {
                    println!("{:<14} FAILED: {e}", workload.name());
                }
                continue;
            }
        };
        ok &= a.failed == 0 && b.failed == 0;
        for (name, first, _) in &a.metrics {
            let second = b.value(name).unwrap_or(f64::NAN);
            let spread = (first - second).abs() / ((first + second) / 2.0);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, b)| *b);
            // A missing bound or metric compares false and fails.
            let within = spread <= bound;
            ok &= within || *name == "setup_s";
            println!(
                "{:<14} {:<14} {first:>14.3} {second:>14.3} {:>8.2}% {:>6.1}%{}",
                workload.name(),
                name,
                spread * 100.0,
                bound * 100.0,
                if within { "" } else { "  <-- beyond its bound" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
