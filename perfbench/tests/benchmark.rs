//! The benchmark's own checks: its inputs are a pure function of the seed,
//! it prints exactly the metric names `BENCHMARK.json` declares, and a
//! short run of every workload passes its correctness check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;

use fuse_perfbench::{run, workload_inputs, Args, Workload, END_TO_END, PER_LAYER};

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `"name"` values inside the array under `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("name value") + 1;
            let close = open + rest[open..].find('"').expect("name closes");
            rest[open..close].to_string()
        })
        .collect()
}

/// Metric names in a result line (`"<name>": {"value": …`).
fn result_names(line: &str) -> BTreeSet<String> {
    let chunks: Vec<&str> = line.split(": {\"value\"").collect();
    // Every chunk but the last ends with the name of the metric after it.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| {
            let end = chunk.rfind('"')?;
            let start = chunk[..end].rfind('"')? + 1;
            Some(chunk[start..end].to_string())
        })
        .collect()
}

fn set(names: impl IntoIterator<Item = impl Into<String>>) -> BTreeSet<String> {
    names.into_iter().map(Into::into).collect()
}

#[test]
fn inputs_are_deterministic_per_seed_and_differ_across_seeds() {
    for workload in [Workload::Ward10Hz, Workload::Onboarding] {
        let a = workload_inputs(workload, 7).unwrap().digest();
        let b = workload_inputs(workload, 7).unwrap().digest();
        let c = workload_inputs(workload, 8).unwrap().digest();
        assert_eq!(a, b, "{}: same seed, same inputs", workload.name());
        assert_ne!(a, c, "{}: another seed, other inputs", workload.name());
    }
}

#[test]
fn declared_names_match_the_benchmark_file() {
    let json = benchmark_json();
    assert_eq!(set(names_in(&json, "end_to_end")), set(END_TO_END.map(|(n, _)| n)));
    assert_eq!(set(names_in(&json, "per_layer")), set(PER_LAYER.map(|(n, _)| n)));
    for workload in names_in(&json, "workloads") {
        assert!(Workload::parse(&workload).is_some(), "unknown workload {workload}");
    }
}

#[test]
fn every_workload_smoke_run_passes_its_correctness_check() {
    let json = benchmark_json();
    let end_to_end = set(names_in(&json, "end_to_end"));
    let per_layer = set(names_in(&json, "per_layer"));
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args { workload, seed: 3, seconds: 0.5, trace };
            let outcome = run(args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(
                outcome.correct && outcome.failed == 0,
                "{} (trace {trace}) failed its check:\n{}",
                workload.name(),
                outcome.report.join("\n")
            );
            assert!(outcome.attempted > 0);
            let printed = result_names(&outcome.result_json());
            let expected = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&printed, expected, "{} (trace {trace}) metric names", workload.name());
        }
    }
}
