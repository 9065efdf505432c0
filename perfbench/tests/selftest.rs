//! Self-tests of the benchmark: the declared metric set, the warm-store
//! corruption check, seed sensitivity, and exact repetition of the
//! simulated (exact) metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cfr_core::{ExperimentScale, RunKey, Store, StrategyKind};
use cfr_types::{AddressingMode, ArtifactStore, GcPolicy, NS_RUNS};
use perfbench::{run, workloads::run_paper_warm_with, RunArgs, Workload, END_TO_END, PER_LAYER};

/// Small runs: a few passes at a reduced commit count.
fn args(workload: Workload, seed: u64, trace: bool, test: &str) -> RunArgs {
    RunArgs {
        workload,
        seed,
        seconds: 0.0,
        trace,
        commits: 20_000,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
    }
}

/// `(name, unit)` of every metric object in `BENCHMARK.json`'s `key`
/// array.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| -> Option<String> {
        let at = obj.find(&format!("\"{f}\""))?;
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("metric has a name"),
                field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_valid_and_match_the_declaration() {
    let json = benchmark_json();
    let e2e = declared(&json, "end_to_end");
    let layer = declared(&json, "per_layer");
    assert!(
        !e2e.is_empty() && e2e.len() <= 16,
        "1..=16 end-to-end metrics"
    );
    assert!(
        !layer.is_empty() && layer.len() <= 128,
        "1..=128 per-layer metrics"
    );
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in e2e.iter().chain(&layer) {
        assert!(valid_name(name), "metric name {name:?} is [A-Za-z0-9_.-]+");
        assert!(seen.insert(name.clone()), "metric {name} declared once");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {unit:?} of {name}"
        );
    }
    let code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(
        e2e,
        code(END_TO_END),
        "BENCHMARK.json end_to_end = END_TO_END"
    );
    assert_eq!(
        layer,
        code(PER_LAYER),
        "BENCHMARK.json per_layer = PER_LAYER"
    );
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let workloads: Vec<String> = {
        let start = json.find("\"workloads\"").expect("workloads declared");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    let names: Vec<String> = Workload::DECLARED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(
        workloads, names,
        "BENCHMARK.json workloads = Workload::DECLARED"
    );
}

#[test]
fn corrupted_warm_record_is_counted_failed_not_served() {
    let corrupt = |dir: &Path, scale: &ExperimentScale| {
        let store = ArtifactStore::open(dir, GcPolicy::unbounded()).expect("filled store opens");
        // A run of the plan (Table 2's base VI-PT run of 177.mesa),
        // overwritten with a value that is not a report.
        let key = RunKey::new("177.mesa", scale, StrategyKind::Base, AddressingMode::ViPt);
        store.save(NS_RUNS, &Store::key_record(&key), "report torn");
    };
    let a = args(Workload::PaperWarm, 3, false, "corrupt");
    let out = run_paper_warm_with(&a, &corrupt);
    assert!(out.attempted >= 20, "the replay loop ran");
    assert!(
        out.failed >= 1,
        "the replay that met the damaged record failed its check"
    );
    assert!(
        out.failed < out.attempted,
        "the damaged record was repaired; later replays are clean"
    );
    let clean = run(&args(Workload::PaperWarm, 3, false, "clean"));
    assert_eq!(clean.failed, 0, "an undamaged store replays cleanly");
    assert_eq!(clean.digest, out.digest, "both replayed the same cold pass");
}

#[test]
fn changing_the_seed_changes_the_digest() {
    for w in [Workload::PaperCold, Workload::Multiprog] {
        let a = run(&args(w, 1, false, &format!("seed-a-{}", w.name())));
        let b = run(&args(w, 2, false, &format!("seed-b-{}", w.name())));
        assert_eq!((a.failed, b.failed), (0, 0), "{}", w.name());
        assert_ne!(a.digest, b.digest, "{}: seed reaches the walker", w.name());
    }
}

/// The per-layer metrics that are simulated or counted, not timed.
fn exact(out: &perfbench::Outcome) -> BTreeMap<&'static str, u64> {
    PER_LAYER
        .iter()
        .filter(|(name, unit)| {
            matches!(*unit, "count" | "bytes" | "per_1k" | "pp" | "mJ") || *name == "cpu.ipc"
        })
        .map(|(name, _)| (*name, out.metrics[name].to_bits()))
        .collect()
}

#[test]
fn exact_metrics_repeat_bit_for_bit() {
    for w in [Workload::PaperCold, Workload::Multiprog] {
        let a = run(&args(w, 5, true, &format!("exact-a-{}", w.name())));
        let b = run(&args(w, 5, true, &format!("exact-b-{}", w.name())));
        assert_eq!((a.failed, b.failed), (0, 0), "{}: checks pass", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
        let (ea, eb) = (exact(&a), exact(&b));
        assert!(ea.len() >= 20, "exact metric set is populated");
        assert_eq!(ea, eb, "{}: exact metrics repeat", w.name());
        if w == Workload::PaperCold {
            for name in ["paper_err_pp", "store_bytes", "core.engine.simulated_runs"] {
                assert!(a.metrics[name] > 0.0, "{name} is measured on paper-cold");
            }
        }
        if w == Workload::Multiprog {
            assert!(a.metrics["core.scenario.context_switches"] > 0.0);
        }
    }
}
