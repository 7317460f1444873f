//! Output checks, the failed-operation count, and the two metric sets.
//!
//! Every check re-derives its verdict with code other than the code that
//! produced the result: strategies are re-checked with the problem's own
//! constraint check, cost model and IC evaluator (not the solver's
//! preprocessed tables), and engine runs with the conservation ledger, the
//! two-thread simulator and the simulator oracle.

use crate::pipeline::{simulate, Fixture, LiveRun, Ops, Pass, Plan, Round, SimSpec, Workload};
use crate::spans::Recorder;
use crate::stats::{fastest, histogram_quantile, median};
use laar_core::{PessimisticFailure, Problem, Violation};
use laar_dsps::{FailurePlan, SimMetrics};

/// `(name, unit, value)` of one printed metric.
pub type Metric = (&'static str, &'static str, f64);

/// Share of a stage's wall time its layer spans must cover. The rest is
/// the benchmark's own glue between calls.
const MIN_COVERAGE: f64 = 0.95;
/// Stages shorter than this are exempt: the recorder's own clock reads
/// are a visible share of them.
const MIN_COVERED_STAGE_S: f64 = 1e-3;

#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Results computed once per run, outside the timed passes.
pub struct RunLevel {
    /// Tuples the simulator processes on the live stage's inputs.
    pub oracle_processed: u64,
    /// Wall time of the first pass's first simulation, and of its repeat
    /// on two threads.
    pub threads1_s: f64,
    pub threads2_s: f64,
}

/// Run-level work: the simulator oracle for the live stage, and the
/// two-thread repeat whose metrics must equal the one-thread run bit for
/// bit. `None` when the first pass planned nothing.
pub fn run_checks(fx: &Fixture, first: &Pass, checks: &mut Checks) -> Option<RunLevel> {
    let mut off = Recorder::new(false);
    let l = &first.loaded;
    let strategy = &first.plan.as_ref()?.strategy;
    let oracle_processed = match fx.workload {
        // The adaptive simulation already ran on the live stage's inputs.
        Workload::Drift24 => first.sims[1].metrics.total_processed(),
        _ => {
            let spec = SimSpec {
                plan: FailurePlan::None,
                threads: 1,
                adapt: false,
                profiled: false,
            };
            let run = simulate(l, &l.live_trace(fx), strategy, spec, &mut off);
            check_sim("oracle simulation", &run.metrics, checks);
            run.metrics.total_processed()
        }
    };
    let spec = SimSpec {
        plan: fx.sim_failure.clone(),
        threads: 2,
        adapt: false,
        profiled: false,
    };
    let threads2 = simulate(l, &l.trace, strategy, spec, &mut off);
    checks.require(
        bit_identical(&threads2.metrics, &first.sims[0].metrics),
        || "simulator metrics differ between 1 and 2 threads".to_owned(),
    );
    Some(RunLevel {
        oracle_processed,
        threads1_s: first.sims[0].run_s,
        threads2_s: threads2.run_s,
    })
}

/// `PartialEq` compares floats by value; the float-roundtrip JSON also
/// tells `-0.0` from `0.0`.
fn bit_identical(a: &SimMetrics, b: &SimMetrics) -> bool {
    a == b && serde_json::to_string(a).ok() == serde_json::to_string(b).ok()
}

fn check_sim(what: &str, m: &SimMetrics, checks: &mut Checks) {
    checks.require(m.conservation.is_balanced(), || {
        format!(
            "{what}: conservation ledger unbalanced: {:?}",
            m.conservation
        )
    });
}

/// Check a plan stage's output: a strategy that meets eqs. 10-12 and,
/// from FT-Search, the cost and IC it claims.
fn check_plan(fx: &Fixture, problem: &Problem, plan: Option<&Plan>, checks: &mut Checks) {
    let Some(plan) = plan else {
        checks.require(false, || "plan stage returned no strategy".to_owned());
        return;
    };
    if fx.workload == Workload::Plan24 {
        checks.require(plan.proved, || "plan24 solve did not prove BST".to_owned());
    }
    let s = &plan.strategy;
    let mut violations = problem.check(s);
    match plan.claimed {
        Some((claimed_cost, claimed_ic)) => {
            let ic = problem.ic_evaluator().ic(s, &PessimisticFailure);
            let cost = problem.cost_model().cost_cycles(s);
            checks.require(
                (claimed_cost - cost).abs() <= 1e-9 * cost.abs().max(1.0)
                    && (claimed_ic - ic).abs() <= 1e-9,
                || {
                    format!(
                        "FT-Search claims cost {claimed_cost} and IC {claimed_ic}; \
                         the re-check gives {cost} and {ic}"
                    )
                },
            );
        }
        // The greedy baseline promises eqs. 11 and 12 only.
        None => violations.retain(|v| !matches!(v, Violation::IcTooLow { .. })),
    }
    checks.require(violations.is_empty(), || {
        format!("deployed strategy violates eqs. 10-12: {violations:?}")
    });
}

/// Check one pass's outputs.
pub fn check_pass(fx: &Fixture, p: &Pass, checks: &mut Checks) {
    check_plan(fx, &p.loaded.problem, p.plan.as_ref(), checks);
    if let (Some(plan), Some(deployed)) = (&p.plan, &p.deployed) {
        checks.require(&plan.strategy == deployed, || {
            "the deployed strategy differs from the planned one".to_owned()
        });
    }
    for (i, sim) in p.sims.iter().enumerate() {
        check_sim(&format!("simulation {i}"), &sim.metrics, checks);
    }
    if let Some(live) = &p.live {
        checks.require(live.report.conservation.is_balanced(), || {
            format!(
                "live run: conservation ledger unbalanced: {:?}",
                live.report.conservation
            )
        });
    }
}

/// Check a round's outputs: its plan is checked as the first pass's is,
/// and, the search being deterministic, must be the same strategy.
pub fn check_round(fx: &Fixture, first: &Pass, r: &Round, checks: &mut Checks) {
    for (_, plan) in &r.plans {
        check_plan(fx, &first.loaded.problem, plan.as_ref(), checks);
        let same = plan.as_ref().map(|p| &p.strategy) == first.plan.as_ref().map(|p| &p.strategy);
        checks.require(same, || {
            "a repeated plan call returned another strategy".to_owned()
        });
    }
    for (i, sim) in r.sims.iter().flat_map(|(_, sims)| sims).enumerate() {
        check_sim(&format!("repeated simulation {i}"), &sim.metrics, checks);
    }
}

/// Operations attempted and failed over all passes and rounds: every
/// stage call, each checked as [`Ops`] says.
pub fn operations(passes: &[Pass], rounds: &[Round]) -> Ops {
    let mut ops = Ops::default();
    for o in passes
        .iter()
        .map(|p| p.ops)
        .chain(rounds.iter().map(|r| r.ops))
    {
        ops.add(o);
    }
    ops
}

/// Share of the tuples handed to replicas (the ledger's `pushed`, plus
/// transport-ring rejections) in the pass's simulate and live stages that
/// were lost: dropped by queues or rings, or, live, processed short of the
/// simulator oracle. Losses are part of the workloads' design (a crash, a
/// stale strategy under drift), so they are a layer figure, not failed
/// operations.
fn tuple_loss_share(p: &Pass, run: &RunLevel) -> f64 {
    let (mut handed, mut lost) = (0u64, 0u64);
    for sim in &p.sims {
        handed += sim.metrics.conservation.pushed;
        lost += sim.metrics.queue_drops;
    }
    if let Some(live) = &p.live {
        let c = &live.report.conservation;
        handed += c.pushed + c.transport_dropped;
        lost += c.queue_drops
            + c.transport_dropped
            + run
                .oracle_processed
                .saturating_sub(live.report.metrics.total_processed());
    }
    lost as f64 / handed.max(1) as f64
}

/// One line about a pass, for standard error.
pub fn summary(p: &Pass) -> String {
    let mut line = format!(
        "setup {:.6} s, plan {:.4} s, simulate {:.4} s, live {:.4} s",
        p.load_s + p.deploy_s,
        p.plan_s,
        p.sim_s,
        p.live_s
    );
    if let Some(l) = &p.live {
        let m = &l.report.metrics;
        line += &format!(
            " ({:.2} CPU-s, {} fail-overs, p50 {:.0} ms, p90 {:.0} ms)",
            l.cpu_s,
            m.failovers,
            latency_ms(m, 0.5),
            latency_ms(m, 0.9)
        );
    }
    line
}

/// One line about a round, for standard error: each stage's median block.
pub fn round_summary(r: &Round) -> String {
    let part = |name: &str, xs: Vec<f64>| {
        (!xs.is_empty()).then(|| format!("{name} {:.6} s ({})", median(&xs), xs.len()))
    };
    [
        part("setup", r.setup_s.clone()),
        part("plan", r.plans.iter().map(|p| p.0).collect()),
        part("simulate", r.sims.iter().map(|s| s.0).collect()),
    ]
    .into_iter()
    .flatten()
    .collect::<Vec<_>>()
    .join(", ")
}

fn latency_ms(m: &SimMetrics, q: f64) -> f64 {
    1e3 * histogram_quantile(&m.latency.buckets, m.latency.bucket_width, q).unwrap_or(f64::NAN)
}

/// End-to-end metrics, named and in the order of `BENCHMARK.json`: the
/// run-live stage of the untraced pass `first`, the peak resident set size
/// the run reached, and over the blocks of `first` and the rounds, the
/// fastest block's time per set-up, per plan call and per simulate stage.
/// The fastest, not the median or the mean: on a shared host whose speed
/// flips between two levels, about a factor of two apart, for seconds at
/// a time, the median block jumps between the levels and the mean follows
/// the share of the run spent at each, while the fastest block reads the
/// fast level whenever the run reaches it. Over five runs of `drift24`
/// the three spread 0.39, 0.27 and 0.05 for `plan_s`, and 0.33, 0.22 and
/// 0.07 for `setup_s`.
pub fn end_to_end(first: &Pass, rounds: &[Round], run: &RunLevel, peak_rss_mb: f64) -> Vec<Metric> {
    let blocks = |own: f64, f: &dyn Fn(&Round) -> Vec<f64>| {
        std::iter::once(own)
            .chain(rounds.iter().flat_map(f))
            .collect::<Vec<_>>()
    };
    let live = |f: &dyn Fn(&LiveRun) -> f64| first.live.as_ref().map_or(f64::NAN, f);
    let plan_cost = first.plan.as_ref().map_or(f64::NAN, |plan| {
        first
            .loaded
            .problem
            .cost_model()
            .cost_cycles(&plan.strategy)
    });
    vec![
        (
            "setup_s",
            "s",
            fastest(&blocks(first.load_s + first.deploy_s, &|r| {
                r.setup_s.clone()
            })),
        ),
        (
            "plan_s",
            "s",
            fastest(&blocks(first.plan_s, &|r| {
                r.plans.iter().map(|p| p.0).collect()
            })),
        ),
        ("plan_cost", "cycles", plan_cost),
        (
            "sim_s",
            "s",
            fastest(&blocks(first.sim_s, &|r| {
                r.sims.iter().map(|s| s.0).collect()
            })),
        ),
        ("live_cpu_s", "s", live(&|l| l.cpu_s)),
        (
            "live_latency_p50_ms",
            "ms",
            live(&|l| latency_ms(&l.report.metrics, 0.5)),
        ),
        (
            "live_latency_p90_ms",
            "ms",
            live(&|l| latency_ms(&l.report.metrics, 0.9)),
        ),
        (
            "live_completeness",
            "ratio",
            live(&|l| l.report.metrics.total_processed() as f64 / run.oracle_processed as f64),
        ),
        ("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// Per-layer metrics, named and in the order of `BENCHMARK.json`, from the
/// traced pass `p` and the spans `rec` recorded over it. A layer the
/// workload bypasses reads 0. `untraced_wall` is the wall time of the
/// untraced pass.
pub fn per_layer(
    fx: &Fixture,
    p: &Pass,
    rec: &Recorder,
    untraced_wall: f64,
    run: &RunLevel,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let spans = rec.spans();
    let span_median = |name: &str| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration())
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    out.push(("model.parse_s", "s", span_median("model.parse")));
    out.push((
        "model.strategy_validate_s",
        "s",
        span_median("model.strategy_validate"),
    ));
    out.push(("core.problem_new_s", "s", span_median("core.problem_new")));

    // FT-Search; scale8 deploys the greedy baseline instead.
    let st = p
        .plan
        .as_ref()
        .and_then(|pl| pl.stats.clone())
        .unwrap_or_default();
    let secs = |d: Option<std::time::Duration>| d.map_or(0.0, |d| d.as_secs_f64());
    let elapsed = st.elapsed.as_secs_f64();
    out.push(("ftsearch.nodes", "count", st.nodes as f64));
    out.push((
        "ftsearch.nodes_per_s",
        "1/s",
        if elapsed > 0.0 {
            st.nodes as f64 / elapsed
        } else {
            0.0
        },
    ));
    out.push(("ftsearch.time_to_first_s", "s", secs(st.time_to_first)));
    out.push(("ftsearch.time_to_best_s", "s", secs(st.time_to_best)));
    out.push((
        "ftsearch.proof_tail_s",
        "s",
        if st.proved {
            elapsed - secs(st.time_to_best)
        } else {
            0.0
        },
    ));
    for (name, i) in [
        ("ftsearch.prunes.cpu", 0),
        ("ftsearch.prunes.compl", 1),
        ("ftsearch.prunes.cost", 2),
        ("ftsearch.prunes.dom", 3),
        ("ftsearch.prunes.nogood", 4),
    ] {
        out.push((name, "count", st.prunes[i] as f64));
    }
    out.push(("ftsearch.improvements", "count", st.improvements as f64));

    // Simulator: the first (profiled) run of the stage, which is the crash
    // run, or drift24's stale run.
    let sim = &p.sims[0];
    let prof = sim.profile.clone().unwrap_or_default();
    out.push(("dsps.new_s", "s", sim.new_s));
    out.push(("dsps.control_s", "s", prof.control_secs));
    out.push(("dsps.emission_s", "s", prof.emission_secs));
    out.push(("dsps.scheduling_s", "s", prof.scheduling_secs));
    out.push(("dsps.forwarding_s", "s", prof.forwarding_secs));
    out.push(("dsps.accounting_s", "s", prof.accounting_secs));
    out.push(("dsps.quanta_executed", "count", prof.quanta_executed as f64));
    out.push((
        "dsps.tuples_per_s",
        "1/s",
        sim.metrics.total_processed() as f64 / sim.run_s,
    ));
    out.push(("dsps.arena_bytes", "bytes", prof.arena_bytes as f64));
    out.push((
        "dsps.threads2_speedup",
        "ratio",
        run.threads1_s / run.threads2_s,
    ));

    // Execution core: the run carrying the workload's control decisions,
    // the crash run or drift24's adaptive run.
    let exec = &p.sims.last().expect("the stage ran").metrics;
    out.push((
        "exec.commands_applied",
        "count",
        exec.commands_applied as f64,
    ));
    out.push(("exec.config_switches", "count", exec.config_switches as f64));
    out.push(("exec.failovers", "count", exec.failovers as f64));
    out.push(("exec.strategy_swaps", "count", exec.strategy_swaps as f64));
    out.push((
        "exec.swap_downtime_tuples",
        "count",
        exec.swap_downtime_tuples as f64,
    ));
    out.push(("exec.queue_drops", "count", exec.queue_drops as f64));

    // Live engine. Nothing fails in a live run, so every fail-over is
    // spurious. `LiveReport` has no lag figure; the overrun past the
    // scaled trace length stands in for it.
    let live = p.live.as_ref().expect("the stage ran");
    let c = &live.report.conservation;
    out.push(("runtime.new_s", "s", live.new_s));
    out.push(("runtime.wall_s", "s", live.run_s));
    out.push((
        "runtime.overrun_s",
        "s",
        live.run_s - fx.live_secs.min(p.loaded.trace.duration) / fx.live_speed,
    ));
    out.push((
        "runtime.loop_passes",
        "count",
        live.report.loop_passes as f64,
    ));
    out.push(("runtime.transport_pushed", "count", c.pushed as f64));
    out.push((
        "runtime.transport_dropped",
        "count",
        c.transport_dropped as f64,
    ));
    out.push((
        "runtime.spurious_failovers",
        "count",
        live.report.metrics.failovers as f64,
    ));
    out.push((
        "pipeline.tuple_loss_share",
        "ratio",
        tuple_loss_share(p, run),
    ));
    out.push((
        "runtime.latency_p99_ms",
        "ms",
        latency_ms(&live.report.metrics, 0.99),
    ));

    // Adaptation, on drift24 only. `replan_wall_ms` covers the last
    // re-plan alone; a re-plan whose fallback found nothing leaves no
    // trace in the report, so its cost shows only in `overhead_s`.
    let (stale, adaptive) = match fx.workload {
        Workload::Drift24 => (Some(&p.sims[0]), Some(&p.sims[1])),
        _ => (None, None),
    };
    let rep = adaptive.and_then(|a| a.adapt.clone()).unwrap_or_default();
    out.push(("adapt.detections", "count", rep.detections as f64));
    out.push(("adapt.replans", "count", rep.replans as f64));
    out.push(("adapt.swaps", "count", rep.swaps as f64));
    out.push(("adapt.soft_fallbacks", "count", rep.soft_fallbacks as f64));
    out.push(("adapt.replan_nodes", "count", rep.replan_nodes as f64));
    out.push(("adapt.replan_wall_ms", "ms", rep.replan_wall_ms));
    out.push((
        "adapt.detect_delay_s",
        "trace_s",
        rep.detected_at.map_or(0.0, |t| t - fx.drift_at),
    ));
    let (overhead, drops_avoided) = match (stale, adaptive) {
        (Some(s), Some(a)) => (
            a.run_s - s.run_s,
            s.metrics.queue_drops as f64 - a.metrics.queue_drops as f64,
        ),
        _ => (0.0, 0.0),
    };
    out.push(("adapt.overhead_s", "s", overhead));
    out.push(("adapt.drops_avoided", "count", drops_avoided));

    // Span bookkeeping: self time per layer, stage coverage, overhead.
    let own = rec.self_times();
    for (metric, prefix) in [
        ("self.bench_s", "stage."),
        ("self.model_s", "model."),
        ("self.core_s", "core."),
        ("self.ftsearch_s", "ftsearch."),
        ("self.dsps_s", "dsps."),
        ("self.runtime_s", "runtime."),
    ] {
        let total: f64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| {
                s.name.starts_with(prefix) || (prefix == "stage." && s.name == "pipeline")
            })
            .map(|(_, &o)| o)
            .sum();
        out.push((metric, "s", total));
    }
    let mut min_coverage: f64 = 1.0;
    for (stage, share, wall) in rec.stage_coverage() {
        if wall < MIN_COVERED_STAGE_S {
            continue;
        }
        min_coverage = min_coverage.min(share);
        checks.require(share >= MIN_COVERAGE, || {
            format!(
                "layer spans cover {:.1} % of {stage} ({wall:.4} s), under {:.0} %",
                100.0 * share,
                100.0 * MIN_COVERAGE
            )
        });
    }
    out.push(("trace.stage_coverage_min", "ratio", min_coverage));
    out.push(("trace.overhead_s", "s", p.wall_s - untraced_wall));
    out
}
