//! The benchmark's contract with its driver: names, counts, and the
//! agreement between `BENCHMARK.json`, `spec.rs` and what the binaries
//! print.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

use ezbft_benchmark::json::Json;
use ezbft_benchmark::spec;

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

/// `^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`
fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

/// `^[A-Za-z0-9_/%.-]{1,16}$`
fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_and_units_are_well_formed_and_within_the_caps() {
    let per_layer = spec::per_layer();
    assert!(spec::END_TO_END.len() <= 16);
    assert!(
        per_layer.len() <= 128,
        "{} per-layer series",
        per_layer.len()
    );
    let mut seen = BTreeSet::new();
    let workloads = spec::WORKLOADS.iter().map(|w| (w.name(), "count"));
    for (name, unit) in workloads.chain(spec::END_TO_END).chain(per_layer) {
        assert!(is_name(name), "bad name {name:?}");
        assert!(is_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
}

#[test]
fn benchmark_json_mirrors_the_spec() {
    let doc = benchmark_json();
    let keys: Vec<&str> = match &doc {
        Json::Obj(map) => map.keys().map(String::as_str).collect(),
        other => panic!("not an object: {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .map_or(&[][..], Json::items)
            .iter()
            .filter_map(Json::as_str)
            .collect()
    };
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings("paths"), ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = doc.get("workloads").unwrap().items();
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    let expected: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for w in workloads {
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let listed = |key: &str| -> Vec<(&str, &str)> {
        doc.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                assert!(["higher", "lower"].contains(&text(m, "better")));
                (text(m, "name"), text(m, "unit"))
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), spec::END_TO_END);
    assert_eq!(listed("per_layer"), spec::per_layer());
    // A bound is never above 10 % (a noisier metric gets a longer run or a
    // better estimator, not a wider bound); the virtual-clock latency gets
    // 5 %; `setup_s` carries the largest.
    let mut bounds = std::collections::BTreeMap::new();
    for m in doc.get("end_to_end").unwrap().items() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.10, "{m:?}");
        bounds.insert(text(m, "name"), bound);
    }
    assert!(bounds["lat_wan_mean_us"] <= 0.05);
    assert!(bounds.values().all(|b| *b <= bounds["setup_s"]));
    let setup = &doc.get("end_to_end").unwrap().items()[spec::END_TO_END.len() - 1];
    assert_eq!(
        (
            text(setup, "name"),
            text(setup, "unit"),
            text(setup, "better")
        ),
        ("setup_s", "s", "lower")
    );
}

/// The metric names of one printed result line, after checking the
/// line's own keys.
fn printed(line: &str, extra_key: Option<&str>) -> (Json, Vec<String>) {
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let Json::Obj(map) = &doc else {
        panic!("not an object: {line}")
    };
    let mut want = vec!["attempted", "correct", "failed", "metrics"];
    want.extend(extra_key);
    want.sort_unstable();
    assert_eq!(map.keys().map(String::as_str).collect::<Vec<_>>(), want);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(
        doc.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{line}"
    );
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics: {line}")
    };
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    let names = metrics.keys().cloned().collect();
    (doc, names)
}

fn sorted(names: impl IntoIterator<Item = (&'static str, &'static str)>) -> Vec<String> {
    let mut v: Vec<String> = names.into_iter().map(|n| n.0.to_string()).collect();
    v.sort_unstable();
    v
}

// One test, not two: the quick end-to-end run is timed, so nothing else
// of this file may compete with it for the two cores.
#[test]
fn quick_mode_is_fast_and_both_binaries_print_the_names_in_benchmark_json() {
    let start = Instant::now();
    let done = Command::new(env!("CARGO_BIN_EXE_ezbft-benchmark"))
        .args(["--quick", "--seed", "3"])
        .output()
        .expect("run ezbft-benchmark");
    let took = start.elapsed();
    assert!(
        done.status.success(),
        "{}",
        String::from_utf8_lossy(&done.stderr)
    );
    assert!(took.as_secs() < 20, "--quick took {took:?}");
    let stdout = String::from_utf8(done.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), spec::WORKLOADS.len());
    for (line, workload) in lines.iter().zip(spec::WORKLOADS) {
        let (doc, names) = printed(line, Some("workload"));
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some(workload.name())
        );
        assert_eq!(names, sorted(spec::END_TO_END));
    }

    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-out");
    let done = Command::new(env!("CARGO_BIN_EXE_ezbft-benchmark-trace"))
        .args([
            "--workload",
            "sim_contended",
            "--trace",
            "1",
            "--quick",
            "--seed",
            "3",
        ])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run ezbft-benchmark-trace");
    assert!(
        done.status.success(),
        "{}",
        String::from_utf8_lossy(&done.stderr)
    );
    let stdout = String::from_utf8(done.stdout).unwrap();
    let (doc, names) = printed(stdout.lines().last().unwrap(), None);
    assert_eq!(names, sorted(spec::per_layer()));
    // The counting allocator is installed in this binary only.
    let allocs = doc
        .get("metrics")
        .unwrap()
        .get("proc.allocs_per_op")
        .unwrap();
    assert!(allocs.get("value").and_then(Json::as_f64).unwrap() > 0.0);
    let spans = std::fs::read_to_string(out_dir.join("trace_sim_contended.json")).unwrap();
    let spans = Json::parse(&spans).expect("the span file is JSON");
    assert!(!spans.get("spans").unwrap().items().is_empty());

    // The wrong binary for the mode refuses instead of printing a result.
    let refused = Command::new(env!("CARGO_BIN_EXE_ezbft-benchmark"))
        .args(["--workload", "sim_contended", "--trace", "1"])
        .output()
        .expect("run ezbft-benchmark");
    assert!(!refused.status.success() && refused.stdout.is_empty());

    // The workloads are constants: no flag resizes them, and the sizing
    // probe cannot be mistaken for a result.
    let refused = Command::new(env!("CARGO_BIN_EXE_ezbft-benchmark"))
        .args(["--workload", "sim_contended", "--probe-contention", "100"])
        .output()
        .expect("run ezbft-benchmark");
    assert!(!refused.status.success() && refused.stdout.is_empty());
    let probe = Command::new(env!("CARGO_BIN_EXE_sizing-probe"))
        .args(["--contention", "100", "--passes", "1"])
        .output()
        .expect("run sizing-probe");
    assert!(probe.status.success());
    let stdout = String::from_utf8(probe.stdout).unwrap();
    assert!(
        stdout.lines().count() == 2 && !stdout.contains('{'),
        "{stdout}"
    );
}
