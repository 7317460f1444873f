//! The three workloads and one pass of the user's pipeline over them:
//! `load → plan → deploy → simulate → run-live`, with adaptation inside the
//! simulate and run-live stages of `drift24`.
//!
//! Every call into the program goes through a crate's public API and is
//! timed from outside; in a traced pass each call is also a span.

use crate::spans::Recorder;
use laar_adapt::{AdaptConfig, AdaptReport};
use laar_core::ftsearch::{self, FtSearchConfig, Outcome, SearchStats};
use laar_core::{greedy, Problem};
use laar_dsps::{
    FailurePlan, InputTrace, PhaseProfile, RateSchedule, SimConfig, SimMetrics, Simulation,
};
use laar_gen::{generator::generate_app, GenParams};
use laar_model::{ActivationStrategy, Application, HostId, Placement};
use laar_runtime::{LiveReport, LiveRuntime, RuntimeConfig};
use std::time::{Duration, Instant};

/// Trace length: the generated apps' 300 s billing period.
pub const TRACE_SECS: f64 = 300.0;
/// The SLA's internal-completeness requirement every workload plans for.
pub const IC: f64 = 0.7;
/// `laar solve`'s default `--time-limit`.
const SOLVE_LIMIT: Duration = Duration::from_secs(10);
/// Node budget of the strategy `drift24` deploys (the re-planner's own
/// default budget, so deploy-time and re-plan searches are alike).
const DRIFT_NODE_BUDGET: u64 = 200_000;
/// A stage is timed in blocks: called until the block has taken
/// [`BLOCK_SECS`], at least once.
const BLOCK_SECS: f64 = 0.05;
/// A stage whose call is shorter than this is cheap: each [`Round`] times
/// the cheap stages in turn, one block each, until the round has spent
/// [`CHEAP_SLOT_SECS`] on them. The host's speed flips between two levels
/// and stays at one for seconds at a time, so short blocks spread over the
/// run give the fastest block, which the metrics report, many chances to
/// fall at the fast level.
const CHEAP_CALL_SECS: f64 = 0.5;
const CHEAP_SLOT_SECS: f64 = 0.5;
/// A stage whose first call took longer than this runs once per run:
/// `drift24`'s simulate stage, which waits out the soft fallback's 10 s
/// wall-clock limit, would otherwise take the time the cheap stages need.
const REPEAT_CALL_SECS: f64 = 8.0;

const WHY_PLAN24: &str = "24-PE app proved optimal at IC 0.7 by cold FT-Search (1.4 M nodes): \
    the solver is the costliest stage before run-live; the live engine runs 4 host threads at 25x.";
const WHY_SCALE8: &str = "192-PE, 32-host app on the greedy strategy: the simulator dominates \
    (about 100 M tuples) and the solver is bypassed; 32 live host threads replay 30 s of Low at 5x.";
const WHY_DRIFT24: &str = "A 24-PE app under rates that drift past the declared levels: the only \
    workload where adaptation detects, re-plans and swaps, in the simulator and the live engine.";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Plan24,
    Scale8,
    Drift24,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Plan24, Workload::Scale8, Workload::Drift24];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Plan24 => "plan24",
            Workload::Scale8 => "scale8",
            Workload::Drift24 => "drift24",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the benchmark has this workload, as `BENCHMARK.json` says it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Plan24 => WHY_PLAN24,
            Workload::Scale8 => WHY_SCALE8,
            Workload::Drift24 => WHY_DRIFT24,
        }
    }

    /// Generator seed of the deployment. `plan24`'s 24-PE app proves BST at
    /// IC 0.7 in about 0.15 s, so a run times the proof in some fifty
    /// blocks; seed 5 is the held-out instance for solver claims. `drift24`'s
    /// app adapts once quickly and once through the soft fallback.
    pub fn default_app_seed(self) -> u64 {
        match self {
            Workload::Plan24 => 13,
            Workload::Drift24 => 2,
            Workload::Scale8 => 3,
        }
    }
}

/// The serialized inputs of one workload, as a user hands them to `laar`,
/// and what the simulate and run-live stages do with them.
pub struct Fixture {
    pub workload: Workload,
    pub contract: String,
    pub placement: String,
    pub trace: String,
    /// Host 0 crashes early in the High window (`plan24`, `scale8`); no
    /// failure on `drift24`.
    pub sim_failure: FailurePlan,
    /// Trace time at which `drift24`'s rates first leave the declared
    /// levels.
    pub drift_at: f64,
    /// Trace seconds the live stage replays, from the start, failure-free.
    pub live_secs: f64,
    /// Live-engine speed: trace seconds per wall-clock second.
    pub live_speed: f64,
}

/// `splitmix64`: the benchmark's own generator for seeded event times.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
}

/// Build a workload's inputs. The deployment comes from `app_seed`; the
/// workload `seed` draws when things happen to it: the crash time on
/// `plan24` and `scale8` (uniform in the first fifteenth of the High
/// window), and on `drift24` the two drift onsets (each within a thirtieth
/// of the trace around its third). Sources keep evenly spaced arrivals, as
/// `laar simulate` and `laar run-live` use. `trace_secs` shortens the trace
/// for the self-test.
pub fn fixture(workload: Workload, app_seed: u64, seed: u64, trace_secs: f64) -> Fixture {
    let params = match workload {
        Workload::Plan24 | Workload::Drift24 => GenParams::default(),
        Workload::Scale8 => GenParams::default().scaled(8.0),
    };
    let gen = generate_app(&params, app_seed);
    let mut rng = seed;
    let (u1, u2) = (splitmix(&mut rng), splitmix(&mut rng));
    let third = trace_secs / 3.0;
    let onsets = [
        third + (u1 - 0.5) * trace_secs / 30.0,
        2.0 * third + (u2 - 0.5) * trace_secs / 30.0,
    ];
    let trace = match workload {
        Workload::Plan24 | Workload::Scale8 => {
            InputTrace::low_high_centered(gen.low_rate, gen.high_rate, trace_secs, gen.p_high())
        }
        Workload::Drift24 => InputTrace {
            schedules: vec![RateSchedule::from_segments(vec![
                (0.0, gen.low_rate),
                (onsets[0], 0.75 * gen.high_rate),
                (onsets[1], 1.4 * gen.high_rate),
            ])],
            duration: trace_secs,
        },
    };
    // The live engine declares a host dead when its heartbeat is half a
    // trace second old, i.e. 5 ms of wall time at 100x: on a 2-core
    // machine, scheduler jitter then fails hosts over that never failed
    // (0 to 644 per run, with p50 latency from 322 to 567 ms). At 25x the
    // 24-PE app's 4 host threads keep up. scale8's 32 host threads keep up
    // at 10x, but wall-clock jitter, scaled by the speed into trace time,
    // still moves their latency by a fifth between runs; at 5x, replayed
    // over the Low stretch before the High window, it moves far less.
    let (live_secs, live_speed) = match workload {
        Workload::Scale8 => (0.3 * third, 5.0),
        _ => (trace_secs, 25.0),
    };
    Fixture {
        workload,
        contract: json(&gen.app),
        placement: json(&gen.placement),
        trace: json(&trace),
        sim_failure: match workload {
            Workload::Drift24 => FailurePlan::None,
            _ => FailurePlan::host_crash(HostId(0), third * (1.0 + u1 / 5.0)),
        },
        drift_at: onsets[0],
        live_secs,
        live_speed,
    }
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("model types serialize")
}

/// The parsed inputs and the problem built from them.
pub struct Loaded {
    pub app: Application,
    pub placement: Placement,
    pub trace: InputTrace,
    pub problem: Problem,
}

impl Loaded {
    /// The stretch of the trace the live stage replays.
    pub fn live_trace(&self, fx: &Fixture) -> InputTrace {
        InputTrace {
            duration: fx.live_secs.min(self.trace.duration),
            ..self.trace.clone()
        }
    }
}

/// `load`: parse the contract, placement and trace, then build the problem.
fn load(fx: &Fixture, rec: &mut Recorder) -> Result<Loaded, String> {
    let span = rec.enter("model.parse");
    let app: Result<Application, _> = serde_json::from_str(&fx.contract);
    let placement: Result<Placement, _> = serde_json::from_str(&fx.placement);
    let trace: Result<InputTrace, _> = serde_json::from_str(&fx.trace);
    rec.exit(span);
    let (app, placement, trace) = (
        app.map_err(|e| format!("contract: {e}"))?,
        placement.map_err(|e| format!("placement: {e}"))?,
        trace.map_err(|e| format!("trace: {e}"))?,
    );
    let span = rec.enter("core.problem_new");
    let problem = Problem::new(app.clone(), placement.clone(), IC);
    rec.exit(span);
    Ok(Loaded {
        app,
        placement,
        trace,
        problem: problem.map_err(|e| format!("problem: {e}"))?,
    })
}

/// `deploy`: parse the strategy document and validate it against the app.
fn deploy(doc: &str, l: &Loaded, rec: &mut Recorder) -> Result<ActivationStrategy, String> {
    let span = rec.enter("model.strategy_validate");
    let parsed = serde_json::from_str::<serde_json::Value>(doc)
        .map_err(|e| e.to_string())
        .and_then(|v| {
            ActivationStrategy::from_controller_json(l.app.graph(), &v).map_err(|e| e.to_string())
        })
        .and_then(|s| {
            s.validate(
                l.app.graph(),
                l.app.configs().num_configs(),
                l.placement.k(),
            )
            .map(|()| s)
            .map_err(|e| e.to_string())
        });
    rec.exit(span);
    parsed.map_err(|e| format!("strategy: {e}"))
}

/// What the plan stage produced.
pub struct Plan {
    pub strategy: ActivationStrategy,
    /// Cost (eq. 13) and IC (eq. 14) as FT-Search reported them; `None`
    /// for the greedy baseline, which reports neither.
    pub claimed: Option<(f64, f64)>,
    pub stats: Option<SearchStats>,
    pub proved: bool,
}

/// `plan`: FT-Search as `laar solve` runs it (`plan24`), under a node
/// budget (`drift24`), or the greedy baseline (`scale8`). `None` when the
/// search ends without a strategy.
fn plan(w: Workload, problem: &Problem, rec: &mut Recorder) -> Result<Option<Plan>, String> {
    let opts = match w {
        Workload::Scale8 => {
            let span = rec.enter("core.greedy");
            let grd = greedy(problem);
            rec.exit(span);
            return Ok(Some(Plan {
                strategy: grd.strategy,
                claimed: None,
                stats: None,
                proved: false,
            }));
        }
        Workload::Plan24 => FtSearchConfig::with_time_limit(SOLVE_LIMIT),
        Workload::Drift24 => FtSearchConfig {
            node_limit: Some(DRIFT_NODE_BUDGET),
            ..FtSearchConfig::with_time_limit(SOLVE_LIMIT)
        },
    };
    let span = rec.enter("ftsearch.solve");
    let report = ftsearch::solve(problem, &opts);
    rec.exit(span);
    let report = report.map_err(|e| format!("solve: {e}"))?;
    let proved = matches!(report.outcome, Outcome::Optimal(_));
    Ok(report.outcome.solution().map(|s| Plan {
        strategy: s.strategy.clone(),
        claimed: Some((s.cost_cycles, s.ic)),
        stats: Some(report.stats.clone()),
        proved,
    }))
}

/// One simulator run.
pub struct SimRun {
    pub metrics: SimMetrics,
    pub new_s: f64,
    pub run_s: f64,
    pub profile: Option<PhaseProfile>,
    pub adapt: Option<AdaptReport>,
}

/// How to run the simulator.
pub struct SimSpec {
    pub plan: FailurePlan,
    pub threads: usize,
    pub adapt: bool,
    /// Collect a [`PhaseProfile`] (only without adaptation: the profiled
    /// runner returns no adaptation report).
    pub profiled: bool,
}

pub fn simulate(
    l: &Loaded,
    trace: &InputTrace,
    strategy: &ActivationStrategy,
    spec: SimSpec,
    rec: &mut Recorder,
) -> SimRun {
    let cfg = SimConfig {
        threads: spec.threads,
        adapt: spec.adapt.then(|| AdaptConfig::new(IC)),
        ..SimConfig::default()
    };
    let t = Instant::now();
    let span = rec.enter("dsps.new");
    let sim = Simulation::new(
        &l.app,
        &l.placement,
        strategy.clone(),
        trace,
        spec.plan,
        cfg,
    );
    rec.exit(span);
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let span = rec.enter("dsps.run");
    let (metrics, profile, adapt) = if spec.profiled && !spec.adapt {
        let (m, p) = sim.run_profiled();
        (m, Some(p), None)
    } else {
        let (m, a) = sim.run_adaptive();
        (m, None, a)
    };
    rec.exit(span);
    SimRun {
        metrics,
        new_s,
        run_s: t.elapsed().as_secs_f64(),
        profile,
        adapt,
    }
}

/// One live-engine run.
pub struct LiveRun {
    pub report: LiveReport,
    pub new_s: f64,
    pub run_s: f64,
    /// Process CPU seconds spent while the engine existed.
    pub cpu_s: f64,
}

fn run_live(
    fx: &Fixture,
    l: &Loaded,
    strategy: &ActivationStrategy,
    rec: &mut Recorder,
) -> LiveRun {
    let trace = l.live_trace(fx);
    let mut cfg = RuntimeConfig::accelerated(fx.live_speed);
    cfg.adapt = (fx.workload == Workload::Drift24).then(|| AdaptConfig::new(IC));
    let cpu0 = crate::procfs::cpu_seconds();
    let t = Instant::now();
    let span = rec.enter("runtime.new");
    let rt = LiveRuntime::new(
        &l.app,
        &l.placement,
        strategy.clone(),
        &trace,
        FailurePlan::None,
        cfg,
    );
    rec.exit(span);
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let span = rec.enter("runtime.run");
    let report = rt.run();
    rec.exit(span);
    let run_s = t.elapsed().as_secs_f64();
    LiveRun {
        report,
        new_s,
        run_s,
        cpu_s: crate::procfs::cpu_seconds() - cpu0,
    }
}

/// Stage calls made, and those whose output failed its check: an error,
/// no strategy, a strategy other than the first call's, or a simulator or
/// live run whose conservation ledger does not balance.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    fn one(ok: bool) -> Ops {
        Ops {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}

fn balanced(sims: &[SimRun]) -> bool {
    sims.iter().all(|s| s.metrics.conservation.is_balanced())
}

/// The results of one pass through the whole pipeline.
pub struct Pass {
    /// Mean time of one `load`, `plan` and `deploy` call, and of one
    /// simulate stage, over the stage's block.
    pub load_s: f64,
    pub plan_s: f64,
    pub deploy_s: f64,
    pub sim_s: f64,
    pub plan: Option<Plan>,
    /// The strategy as deployed from its document.
    pub deployed: Option<ActivationStrategy>,
    /// `plan24`, `scale8`: the crash run. `drift24`: the stale run, then
    /// the adaptive run.
    pub sims: Vec<SimRun>,
    pub live_s: f64,
    pub live: Option<LiveRun>,
    pub wall_s: f64,
    pub loaded: Loaded,
    pub ops: Ops,
}

/// Run `f` once, and again until `secs` have passed, checking every
/// result with `ok`. Returns the first result, the mean time of a call and
/// the calls made. A mean over the block, not a median over calls: on a
/// host whose sibling hardware thread is busy part of the time, single
/// calls run at one of two speeds, and the median call jumps between them.
fn timed<T>(secs: f64, mut f: impl FnMut() -> T, ok: impl Fn(&T) -> bool) -> (T, f64, Ops) {
    let start = Instant::now();
    let mut ops = Ops::default();
    let mut first = None;
    while ops.attempted == 0 || start.elapsed().as_secs_f64() < secs {
        let out = std::hint::black_box(f());
        ops.add(Ops::one(ok(&out)));
        first.get_or_insert(out);
    }
    let mean = start.elapsed().as_secs_f64() / ops.attempted as f64;
    (first.expect("ran once"), mean, ops)
}

/// Predicted wall time of a [`timed`] block of `secs` whose calls take
/// `mean`: one call when it fills the block, else the block and one call.
fn block_estimate(mean: f64, secs: f64) -> f64 {
    if mean >= secs {
        mean
    } else {
        secs + mean
    }
}

/// The simulate stage: the crash run, or drift24's stale and adaptive runs.
fn simulate_stage(
    fx: &Fixture,
    l: &Loaded,
    strategy: &ActivationStrategy,
    profiled: bool,
    rec: &mut Recorder,
) -> Vec<SimRun> {
    let adapt: &[bool] = match fx.workload {
        Workload::Drift24 => &[false, true],
        _ => &[false],
    };
    adapt
        .iter()
        .map(|&adapt| {
            let spec = SimSpec {
                plan: fx.sim_failure.clone(),
                threads: 1,
                adapt,
                profiled,
            };
            simulate(l, &l.trace, strategy, spec, rec)
        })
        .collect()
}

/// Run the pipeline once up to the simulate stage, each stage in a block;
/// [`run_live_stage`] completes the pass. Stage spans enclose only calls
/// into the program, so their layer spans cover them; checks run
/// afterwards.
pub fn run_pass(fx: &Fixture, profiled: bool, rec: &mut Recorder) -> Result<Pass, String> {
    let w = fx.workload;
    let pass_start = Instant::now();

    let mut ops = Ops::default();
    let stage = rec.enter("stage.load");
    let (loaded, load_s, load_ops) = timed(BLOCK_SECS, || load(fx, rec), Result::is_ok);
    rec.exit(stage);
    ops.add(load_ops);
    let loaded = loaded?;

    let stage = rec.enter("stage.plan");
    let (planned, plan_s, plan_ops) = timed(
        BLOCK_SECS,
        || plan(w, &loaded.problem, rec),
        |r| matches!(r, Ok(Some(_))),
    );
    rec.exit(stage);
    ops.add(plan_ops);
    let mut pass = Pass {
        load_s,
        plan_s,
        deploy_s: 0.0,
        sim_s: 0.0,
        plan: planned?,
        deployed: None,
        sims: Vec::new(),
        live_s: 0.0,
        live: None,
        wall_s: 0.0,
        loaded,
        ops,
    };
    let Some(planned) = &pass.plan else {
        pass.wall_s = pass_start.elapsed().as_secs_f64();
        return Ok(pass);
    };
    let loaded = &pass.loaded;

    let doc = planned
        .strategy
        .to_controller_json(loaded.app.graph())
        .to_string();
    let stage = rec.enter("stage.deploy");
    let (strategy, deploy_s, deploy_ops) = timed(
        BLOCK_SECS,
        || deploy(&doc, loaded, rec),
        |r| r.as_ref().is_ok_and(|s| s == &planned.strategy),
    );
    rec.exit(stage);
    pass.ops.add(deploy_ops);
    let strategy = strategy?;

    let stage = rec.enter("stage.simulate");
    let (sims, sim_s, sim_ops) = timed(
        BLOCK_SECS,
        || simulate_stage(fx, loaded, &strategy, profiled, rec),
        |s| balanced(s),
    );
    rec.exit(stage);
    pass.ops.add(sim_ops);

    pass.deploy_s = deploy_s;
    pass.sim_s = sim_s;
    pass.deployed = Some(strategy);
    pass.sims = sims;
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    Ok(pass)
}

/// The run-live stage of `pass`, when it deployed a strategy; its time
/// joins the pass's wall time.
pub fn run_live_stage(fx: &Fixture, pass: &mut Pass, rec: &mut Recorder) {
    let Some(strategy) = &pass.deployed else {
        return;
    };
    let start = Instant::now();
    let stage = rec.enter("stage.live");
    let live = run_live(fx, &pass.loaded, strategy, rec);
    rec.exit(stage);
    pass.live_s = start.elapsed().as_secs_f64();
    pass.ops
        .add(Ops::one(live.report.conservation.is_balanced()));
    pass.live = Some(live);
    pass.wall_s += pass.live_s;
}

/// Blocks of the stages that repeat, after the first pass: setup (`load`
/// and `deploy`), `plan` and simulate, each with its mean time per call.
/// The run-live stage runs once per run.
#[derive(Default)]
pub struct Round {
    pub setup_s: Vec<f64>,
    pub plans: Vec<(f64, Option<Plan>)>,
    pub sims: Vec<(f64, Vec<SimRun>)>,
    pub ops: Ops,
}

impl Round {
    pub fn is_empty(&self) -> bool {
        self.setup_s.is_empty() && self.plans.is_empty() && self.sims.is_empty()
    }
}

/// Run a [`Round`] after the deployed pass `first`: one call of each stage
/// that is neither cheap nor run once, then a slot of the cheap stages'
/// blocks in turn. A block is left out when it is predicted to end after
/// `deadline`, so `scale8`'s 4-second simulation stops repeating first
/// and the cheap stages fill the rest of the run.
pub fn run_round(fx: &Fixture, first: &Pass, deadline: Instant) -> Round {
    let mut off = Recorder::new(false);
    let (l, strategy) = (&first.loaded, first.deployed.as_ref().expect("deployed"));
    let planned = &first.plan.as_ref().expect("planned").strategy;
    let doc = strategy.to_controller_json(l.app.graph()).to_string();
    let fits = |secs: f64| Instant::now() + Duration::from_secs_f64(secs) <= deadline;
    let mut round = Round::default();
    let setup = |round: &mut Round, off: &mut Recorder| {
        let (_, load_s, load_ops) = timed(BLOCK_SECS, || load(fx, off).is_ok(), |&ok| ok);
        let (_, deploy_s, deploy_ops) = timed(
            BLOCK_SECS,
            || deploy(&doc, l, off).is_ok_and(|s| &s == strategy),
            |&ok| ok,
        );
        round.setup_s.push(load_s + deploy_s);
        round.ops.add(load_ops);
        round.ops.add(deploy_ops);
    };
    let plan_block = |round: &mut Round, off: &mut Recorder| {
        let (out, secs, ops) = timed(
            BLOCK_SECS,
            || plan(fx.workload, &l.problem, off),
            |r| matches!(r, Ok(Some(p)) if &p.strategy == planned),
        );
        round.plans.push((secs, out.ok().flatten()));
        round.ops.add(ops);
    };
    let sim_block = |round: &mut Round, off: &mut Recorder| {
        let (sims, secs, ops) = timed(
            BLOCK_SECS,
            || simulate_stage(fx, l, strategy, false, off),
            |s| balanced(s),
        );
        round.sims.push((secs, sims));
        round.ops.add(ops);
    };
    let setup_est =
        block_estimate(first.load_s, BLOCK_SECS) + block_estimate(first.deploy_s, BLOCK_SECS);
    let plan_est = block_estimate(first.plan_s, BLOCK_SECS);
    let sim_est = block_estimate(first.sim_s, BLOCK_SECS);
    let (cheap_plan, cheap_sim) = (
        first.plan_s < CHEAP_CALL_SECS,
        first.sim_s < CHEAP_CALL_SECS,
    );

    if !cheap_plan && first.plan_s < REPEAT_CALL_SECS && fits(plan_est) {
        plan_block(&mut round, &mut off);
    }
    if !cheap_sim && first.sim_s < REPEAT_CALL_SECS && fits(sim_est) {
        sim_block(&mut round, &mut off);
    }
    let slot = Instant::now();
    while slot.elapsed().as_secs_f64() < CHEAP_SLOT_SECS {
        let before = round.setup_s.len() + round.plans.len() + round.sims.len();
        if fits(setup_est) {
            setup(&mut round, &mut off);
        }
        if cheap_plan && fits(plan_est) {
            plan_block(&mut round, &mut off);
        }
        if cheap_sim && fits(sim_est) {
            sim_block(&mut round, &mut off);
        }
        if round.setup_s.len() + round.plans.len() + round.sims.len() == before {
            break;
        }
    }
    round
}
