//! `laar-pipebench`: one benchmark of the pipeline a LAAR user runs,
//! `load → plan → deploy → simulate → run-live`, with adaptation inside the
//! last two stages where the workload drifts.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload plan24 --seed 1 --seconds 40 --trace 0 [--app-seed 5]
//! ```
//!
//! It runs the pipeline once, run-live included, then repeats the stages
//! that repeat in rounds until `--seconds` are used up (see `NOTES.md`).
//! With `--trace 1` a second pass is traced instead: every call into the
//! program becomes a span, the spans are written to
//! `<target dir>/pipebench-spans-<workload>-<seed>.json`, and the
//! per-layer metrics are printed instead of the end-to-end ones. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed output check prints `"correct": false` and exits with 1.

mod metrics;
mod pipeline;
mod procfs;
mod spans;
mod stats;

use pipeline::{fixture, run_live_stage, run_pass, run_round, Workload};
use spans::Recorder;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    app_seed: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Option<&str> {
        let i = argv.iter().position(|a| a == key)?;
        argv.get(i + 1).map(String::as_str)
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let num = |key: &str, v: &str| -> Result<u64, String> {
        v.parse().map_err(|e| format!("bad {key} {v:?}: {e}"))
    };
    let name = need("--workload")?;
    let workload = Workload::parse(name)
        .ok_or_else(|| format!("unknown workload {name:?} (plan24, scale8 or drift24)"))?;
    let seed = num("--seed", need("--seed")?)?;
    let seconds = num("--seconds", need("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("bad --trace {v:?}: 0 or 1")),
    };
    let app_seed = match get("--app-seed") {
        Some(v) => num("--app-seed", v)?,
        None => workload.default_app_seed(),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        app_seed,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args, pipeline::TRACE_SECS) {
        Ok(out) => {
            println!("{}", out.json);
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    }
}

/// The printed result of one run.
struct Output {
    correct: bool,
    json: serde_json::Value,
}

/// Run the pipeline once; untraced, then repeat the stages that repeat in
/// rounds until `--seconds` are spent; traced, run it once more as the
/// traced pass. Then check every output and report.
fn run(args: &Args, trace_secs: f64) -> Result<Output, String> {
    let fx = fixture(args.workload, args.app_seed, args.seed, trace_secs);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut off = Recorder::new(false);
    let mut first = run_pass(&fx, false, &mut off)?;
    let mut checks = metrics::Checks::default();
    let run_level = metrics::run_checks(&fx, &first, &mut checks);
    run_live_stage(&fx, &mut first, &mut off);
    let mut rounds = Vec::new();
    if !args.trace && first.deployed.is_some() {
        repeat_rounds(&fx, &first, deadline, &mut rounds);
    }
    eprintln!("pipebench: pass 1: {}", metrics::summary(&first));
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut passes = vec![first];
    let rec = if args.trace {
        let mut rec = Recorder::new(true);
        let top = rec.enter("pipeline");
        let mut traced = run_pass(&fx, true, &mut rec)?;
        run_live_stage(&fx, &mut traced, &mut rec);
        rec.exit(top);
        eprintln!("pipebench: traced pass: {}", metrics::summary(&traced));
        passes.push(traced);
        Some(rec)
    } else {
        None
    };

    for p in &passes {
        metrics::check_pass(&fx, p, &mut checks);
    }
    for r in &rounds {
        metrics::check_round(&fx, &passes[0], r, &mut checks);
    }
    let ops = metrics::operations(&passes, &rounds);
    let (attempted, failed) = (ops.attempted, ops.failed);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    // One live worker thread per host, plus the coordinator.
    let live_threads = passes[0].loaded.placement.num_hosts() + 1;
    let provenance = serde_json::json!({
        "workload": args.workload.name(),
        "why": args.workload.why(),
        "seed": args.seed,
        "app_seed": args.app_seed,
        "host_cores": host_cores,
        "live_threads": live_threads,
        "oversubscribed": live_threads > host_cores,
    });
    eprintln!("pipebench: {provenance}");
    let values = match (&run_level, &rec) {
        (None, _) => Vec::new(),
        (Some(run), None) => metrics::end_to_end(&passes[0], &rounds, run, peak_rss_mb),
        (Some(run), Some(rec)) => {
            let mut doc = provenance;
            if let serde_json::Value::Object(m) = &mut doc {
                m.insert("spans", rec.to_json(args.workload.name()));
            }
            let path = spans_path(args);
            std::fs::create_dir_all(path.parent().expect("file in a directory"))
                .and_then(|()| std::fs::write(&path, doc.to_string()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            metrics::per_layer(&fx, &passes[1], rec, passes[0].wall_s, run, &mut checks)
        }
    };
    for failure in &checks.failures {
        eprintln!("pipebench: check failed: {failure}");
    }
    eprintln!(
        "pipebench: {} round(s) after the first pass, {:.1} s in all; {failed} of {attempted} operations failed",
        rounds.len(),
        started.elapsed().as_secs_f64()
    );
    let mut metrics_json = serde_json::Map::new();
    for (name, unit, value) in &values {
        metrics_json.insert(*name, serde_json::json!({"value": value, "unit": unit}));
    }
    let correct = checks.failures.is_empty() && run_level.is_some() && failed == 0;
    Ok(Output {
        correct,
        json: serde_json::json!({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": serde_json::Value::Object(metrics_json),
        }),
    })
}

/// Run rounds after the first pass until none fits before `deadline`.
fn repeat_rounds(
    fx: &pipeline::Fixture,
    first: &pipeline::Pass,
    deadline: Instant,
    rounds: &mut Vec<pipeline::Round>,
) {
    loop {
        let round = run_round(fx, first, deadline);
        if round.is_empty() {
            return;
        }
        eprintln!(
            "pipebench: round {}: {}",
            rounds.len() + 1,
            metrics::round_summary(&round)
        );
        rounds.push(round);
    }
}

/// Where a traced run writes its spans: the build directory.
fn spans_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        std::path::PathBuf::from,
    );
    dir.join(format!(
        "pipebench-spans-{}-{}.json",
        args.workload.name(),
        args.seed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_file() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of each metric of one kind in `BENCHMARK.json`,
    /// sorted by name.
    fn declared(kind: &str) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = benchmark_file()[kind]
            .as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().expect("a string").to_owned();
                (s("name"), s("unit"))
            })
            .collect();
        out.sort();
        out
    }

    /// Every workload, on a 30-second trace, prints exactly the declared
    /// metrics with their units and finite values, and passes its checks.
    #[test]
    fn short_trace_prints_every_declared_metric() {
        for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(kind);
            for workload in Workload::ALL {
                let args = Args {
                    workload,
                    seed: 1,
                    seconds: 1.0,
                    trace,
                    app_seed: workload.default_app_seed(),
                };
                let out = run(&args, 30.0).expect("the run completes");
                let name = workload.name();
                assert!(out.correct, "{name}: {}", out.json);
                assert!(out.json["attempted"].as_u64() >= Some(1), "{name}");
                let metrics = out.json["metrics"].as_object().expect("a metrics object");
                let got: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), v["unit"].as_str().unwrap_or("").to_owned()))
                    .collect();
                assert_eq!(got, want, "{name} {kind}");
                for (k, v) in metrics.iter() {
                    assert!(
                        v["value"].as_f64().is_some_and(f64::is_finite),
                        "{name} {k}: {v:?}"
                    );
                }
            }
        }
    }

    /// The provenance gives each workload's reason as `BENCHMARK.json` does.
    #[test]
    fn reasons_match_the_benchmark_file() {
        let doc = benchmark_file();
        let declared = doc["workloads"].as_array().expect("a workload list");
        assert_eq!(declared.len(), Workload::ALL.len());
        for w in Workload::ALL {
            let entry = declared
                .iter()
                .find(|d| d["name"].as_str() == Some(w.name()));
            assert_eq!(entry.map(|d| &d["why"]), Some(&serde_json::json!(w.why())));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload plan24 --seed 3 --seconds 10 --trace 1")).is_ok());
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload plan24 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload plan24 --seed 3 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload plan24 --seed 3 --seconds 5 --trace 2")).is_err());
    }
}
