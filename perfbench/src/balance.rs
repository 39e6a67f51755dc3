//! The balance workloads: `run_to_balance_distributed_with` on the
//! single-threaded event engine, two-speed platform, 100 units per
//! rank, tree collectives, piecewise models, eps 0.05, at most 25
//! steps, blocking mode — the set-up of
//! `fupermod_simulate --app balance --sim-engine event --collectives tree`.
//!
//! One run balances an ensemble of platforms drawn from the workload
//! seed. The number of steps to reach eps varies from platform to
//! platform (8–11 for geometric at p = 4096, 7 to more than 25 for
//! numerical at p = 512), so the time to reach eps says mostly which
//! platforms the seed drew. The end-to-end timings are therefore per
//! balancing step; the time to eps is a traced, per-layer figure
//! (`core.dynamic.time_to_eps_s`) next to the exact step count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fupermod_apps::matmul::measure_device_point;
use fupermod_core::dynamic::DynamicContext;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::{
    Distribution, GeometricPartitioner, NumericalPartitioner, Partitioner,
};
use fupermod_core::{CoreError, Point, Precision};
use fupermod_platform::{Platform, WorkloadProfile};
use fupermod_runtime::{
    run_to_balance_distributed_with, AlgorithmPolicy, BalanceOutcome, OverlapMode, RuntimeConfig,
    RuntimeError, SimEngine,
};

use crate::report::Report;
use crate::stats::{mean, median, quantile, Timer};
use crate::Args;

/// One balance workload.
#[derive(Debug)]
pub struct Spec {
    pub ranks: usize,
    pub smoke_ranks: usize,
    pub numerical: bool,
    /// Platforms balanced in one plain run; a traced run takes the
    /// first half of them, each once plain and once decorated.
    pub platforms: usize,
}

pub const GEOMETRIC: Spec = Spec {
    ranks: 4096,
    smoke_ranks: 16,
    numerical: false,
    platforms: 6,
};

pub const NUMERICAL: Spec = Spec {
    ranks: 512,
    smoke_ranks: 32,
    numerical: true,
    platforms: 32,
};

const UNITS_PER_RANK: u64 = 100;
const EPS: f64 = 0.05;
const MAX_STEPS: usize = 25;
const SMOKE_PLATFORMS: usize = 2;
/// Timed builds of the ensemble per pass of a plain run, at least.
const SETUP_SAMPLES: usize = 100;

/// Platform seeds are spaced this far apart. `Platform::two_speed`
/// seeds fast device `i` with `seed + i` and slow device `i` with
/// `seed + 1000 + i`, so a platform of `p ≤ 2²⁰ − 2000` ranks uses
/// seeds inside its own stride: consecutive workload seeds (and the
/// platforms of one ensemble) share no device seed.
const SEED_STRIDE: u64 = 1 << 20;
/// Upper bound on platforms per workload seed (ensemble + warm-up).
const MAX_PLATFORMS: u64 = 64;

/// The platform seed of ensemble member `j` for workload seed `seed`.
pub fn platform_seed(seed: u64, j: usize) -> u64 {
    assert!((j as u64) < MAX_PLATFORMS, "ensemble too large");
    seed.wrapping_mul(MAX_PLATFORMS)
        .wrapping_add(j as u64)
        .wrapping_mul(SEED_STRIDE)
}

fn make_platform(ranks: usize, seed: u64, j: usize) -> Platform {
    Platform::two_speed(ranks.div_ceil(2), ranks / 2, platform_seed(seed, j))
}

/// Calls timed in a traced run.
#[derive(Debug, Default)]
struct Layers {
    partition: Timer,
    benchmark: Timer,
    model: Timer,
    reps: AtomicU64,
}

/// A partitioner that times each call into the one it wraps.
struct TimedPartitioner {
    inner: Box<dyn Partitioner>,
    layers: Arc<Layers>,
}

impl Partitioner for TimedPartitioner {
    fn partition(&self, total: u64, models: &[&dyn Model]) -> Result<Distribution, CoreError> {
        self.layers
            .partition
            .time(|| self.inner.partition(total, models))
    }
}

/// A model that times each `update` of the one it wraps.
struct TimedModel {
    inner: Box<dyn Model>,
    layers: Arc<Layers>,
}

impl Model for TimedModel {
    fn points(&self) -> &[Point] {
        self.inner.points()
    }
    fn update(&mut self, point: Point) -> Result<(), CoreError> {
        let inner = &mut self.inner;
        self.layers.model.time(|| inner.update(point))
    }
    fn time(&self, x: f64) -> Option<f64> {
        self.inner.time(x)
    }
    fn time_derivative(&self, x: f64) -> Option<f64> {
        self.inner.time_derivative(x)
    }
    fn speed(&self, x: f64) -> Option<f64> {
        self.inner.speed(x)
    }
    fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}

/// One balance run of one platform.
struct Run {
    outcome: Result<BalanceOutcome, RuntimeError>,
    wall: f64,
    /// Wall time of each step: rank 0 measures first in every step on
    /// the event engine, so its measurement calls mark the step
    /// boundaries; the last step ends with the run.
    step_walls: Vec<f64>,
}

impl Run {
    fn converged(&self) -> bool {
        self.outcome.as_ref().is_ok_and(BalanceOutcome::converged)
    }
}

fn balance_once(platform: &Platform, numerical: bool, layers: Option<&Arc<Layers>>) -> Run {
    let size = platform.size();
    let total = UNITS_PER_RANK * size as u64;
    let profile = WorkloadProfile::matrix_update(16);
    let precision = Precision::quick();
    let config = RuntimeConfig::sim(size, platform.link())
        .with_engine(SimEngine::Event)
        .with_algorithms(AlgorithmPolicy::tree());
    let make_ctx = || {
        let partitioner: Box<dyn Partitioner> = if numerical {
            Box::new(NumericalPartitioner::default())
        } else {
            Box::new(GeometricPartitioner::default())
        };
        let models = (0..size).map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>);
        match layers {
            None => DynamicContext::new(partitioner, models.collect(), total, EPS),
            Some(l) => DynamicContext::new(
                Box::new(TimedPartitioner {
                    inner: partitioner,
                    layers: Arc::clone(l),
                }),
                models
                    .map(|m| {
                        Box::new(TimedModel {
                            inner: m,
                            layers: Arc::clone(l),
                        }) as Box<dyn Model>
                    })
                    .collect(),
                total,
                EPS,
            ),
        }
    };
    let step_starts = Mutex::new(Vec::new());
    let measure = |rank: usize, d: u64| {
        if rank == 0 {
            step_starts
                .lock()
                .expect("step clock poisoned")
                .push(Instant::now());
        }
        match layers {
            None => measure_device_point(platform, rank, &profile, d, &precision),
            Some(l) => {
                let point = l
                    .benchmark
                    .time(|| measure_device_point(platform, rank, &profile, d, &precision));
                if let Ok(p) = &point {
                    l.reps.fetch_add(u64::from(p.reps), Ordering::Relaxed);
                }
                point
            }
        }
    };
    let start = Instant::now();
    let outcome = run_to_balance_distributed_with(
        config,
        size,
        make_ctx,
        measure,
        MAX_STEPS,
        OverlapMode::Blocking,
    );
    let end = Instant::now();
    let mut marks = step_starts.into_inner().expect("step clock poisoned");
    marks.push(end);
    Run {
        outcome,
        wall: (end - start).as_secs_f64(),
        step_walls: marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect(),
    }
}

/// Bitwise equality of two outcomes: steps, observations, final sizes
/// and virtual time.
fn same_outcome(a: &BalanceOutcome, b: &BalanceOutcome) -> bool {
    let same_point = |x: &Point, y: &Point| {
        x.d == y.d
            && x.t.to_bits() == y.t.to_bits()
            && x.reps == y.reps
            && x.ci.to_bits() == y.ci.to_bits()
    };
    a.final_sizes == b.final_sizes
        && a.virtual_time.map(f64::to_bits) == b.virtual_time.map(f64::to_bits)
        && a.dead_ranks == b.dead_ranks
        && a.steps.len() == b.steps.len()
        && a.steps.iter().zip(&b.steps).all(|(s, t)| {
            s.converged == t.converged
                && s.units_moved == t.units_moved
                && s.imbalance.to_bits() == t.imbalance.to_bits()
                && s.observed.len() == t.observed.len()
                && s.observed
                    .iter()
                    .zip(&t.observed)
                    .all(|(x, y)| same_point(x, y))
        })
}

/// Two runs ended the same way: bitwise-equal outcomes, or the same
/// error.
fn same_result(a: &Run, b: &Run) -> bool {
    match (&a.outcome, &b.outcome) {
        (Ok(x), Ok(y)) => same_outcome(x, y),
        (Err(x), Err(y)) => x.to_string() == y.to_string(),
        _ => false,
    }
}

/// Checks every run must pass, converged or not.
fn check_run(report: &mut Report, run: &Run, j: usize, total: u64) {
    if let Ok(o) = &run.outcome {
        let sum: u64 = o.final_sizes.iter().sum();
        report.check(sum == total, || {
            format!("platform {j}: final sizes sum to {sum}, expected {total}")
        });
        report.check(
            o.virtual_time.is_some_and(|v| v.is_finite() && v > 0.0),
            || format!("platform {j}: no positive virtual time on the sim backend"),
        );
    }
}

pub fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let ranks = if args.smoke {
        spec.smoke_ranks
    } else {
        spec.ranks
    };
    let all = if args.smoke {
        SMOKE_PLATFORMS
    } else {
        spec.platforms
    };
    let count = if args.trace { all.div_ceil(2) } else { all };
    let total = UNITS_PER_RANK * ranks as u64;

    let mut report = Report::new();
    report.note("ranks", ranks);
    report.note("platforms", count);
    report.note(
        "platform_seeds",
        (0..count)
            .map(|j| platform_seed(args.seed, j).to_string())
            .collect::<Vec<_>>()
            .join(","),
    );

    // Set-up: generating the ensemble's platforms. It takes a few
    // milliseconds, so builds in a burst would time the host at one
    // instant; a plain run rebuilds the ensemble between its balance
    // runs instead and reports the median build.
    let build = || {
        let start = Instant::now();
        let platforms: Vec<Platform> = (0..count)
            .map(|j| make_platform(ranks, args.seed, j))
            .collect();
        (platforms, start.elapsed().as_secs_f64())
    };
    let (platforms, first_setup) = build();
    // Warm-up on a small platform outside the ensemble: code and
    // allocator pages, not measured.
    let warm = balance_once(&make_platform(64, args.seed, count), spec.numerical, None);
    if let Err(e) = &warm.outcome {
        return Err(format!("warm-up balance run failed: {e}"));
    }

    if args.trace {
        traced(spec, &platforms, total, &mut report);
    } else {
        let mut setups = vec![first_setup];
        plain(spec, args, &platforms, total, &mut report, &mut || {
            setups.push(build().1);
        });
        report.timing("setup_s", median(&setups), "s", setups.len());
    }
    Ok(report)
}

fn plain(
    spec: &Spec,
    args: &Args,
    platforms: &[Platform],
    total: u64,
    report: &mut Report,
    rebuild: &mut dyn FnMut(),
) {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut firsts: Vec<Run> = Vec::with_capacity(platforms.len());
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); platforms.len()];
    let mut step_walls = Vec::new();
    let (mut steps, mut busy) = (0usize, 0.0f64);
    // Whole passes over the ensemble while the next one still fits
    // the budget; at least one.
    loop {
        let pass_start = Instant::now();
        for (j, platform) in platforms.iter().enumerate() {
            let run = balance_once(platform, spec.numerical, None);
            for _ in 0..SETUP_SAMPLES.div_ceil(platforms.len()) {
                rebuild();
            }
            report.attempted += 1;
            if !run.converged() {
                report.failed += 1;
            }
            check_run(report, &run, j, total);
            walls[j].push(run.wall);
            step_walls.extend_from_slice(&run.step_walls);
            steps += run.step_walls.len();
            busy += run.wall;
            match firsts.get(j) {
                None => firsts.push(run),
                Some(first) => report.check(same_result(first, &run), || {
                    format!("platform {j}: a repeated run differs")
                }),
            }
        }
        if start.elapsed() + pass_start.elapsed() > budget {
            break;
        }
    }

    let converged: Vec<usize> = (0..platforms.len())
        .filter(|&j| firsts[j].converged())
        .collect();
    let failing: Vec<String> = (0..platforms.len())
        .filter(|j| !converged.contains(j))
        .map(|j| match &firsts[j].outcome {
            Ok(_) => format!("{j}:not_converged_in_{MAX_STEPS}"),
            Err(e) => format!("{j}:error:{e}"),
        })
        .collect();
    report.note("failed_platforms", failing.join(","));
    report.note(
        "platform_steps_walls",
        firsts
            .iter()
            .zip(&walls)
            .map(|(r, w)| format!("{}:{:.4}", r.step_walls.len(), median(w)))
            .collect::<Vec<_>>()
            .join(","),
    );
    report.note("passes", walls[0].len());
    // Time to a solution within eps, per platform (median over its
    // repeats), averaged over the platforms that reached one: a note,
    // not a metric, because it mostly tells which platforms the seed
    // drew.
    let per_platform: Vec<f64> = converged.iter().map(|&j| median(&walls[j])).collect();
    report.note("time_to_eps_s", mean(&per_platform));
    report.timing("ops_per_s", steps as f64 / busy, "1/s", steps);
    report.timing(
        "latency_p50_ms",
        quantile(&step_walls, 0.5) * 1e3,
        "ms",
        step_walls.len(),
    );
    report.timing(
        "latency_p90_ms",
        quantile(&step_walls, 0.9) * 1e3,
        "ms",
        step_walls.len(),
    );
}

fn traced(spec: &Spec, platforms: &[Platform], total: u64, report: &mut Report) {
    let layers = Arc::new(Layers::default());
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    let (mut steps, mut units_moved, mut virtual_s) = (0u64, 0u64, 0.0);
    let mut final_imbalance = Vec::new();
    let mut to_eps = Vec::new();
    for (j, platform) in platforms.iter().enumerate() {
        let plain = balance_once(platform, spec.numerical, None);
        let traced = balance_once(platform, spec.numerical, Some(&layers));
        report.attempted += 1;
        if !traced.converged() {
            report.failed += 1;
        }
        check_run(report, &plain, j, total);
        check_run(report, &traced, j, total);
        report.check(same_result(&plain, &traced), || {
            format!("platform {j}: the decorated run differs from the plain run")
        });
        plain_wall += plain.wall;
        traced_wall += traced.wall;
        if plain.converged() {
            to_eps.push(plain.wall);
        }
        if let Ok(o) = &traced.outcome {
            steps += o.steps.len() as u64;
            units_moved += o.steps.iter().map(|s| s.units_moved).sum::<u64>();
            virtual_s += o.virtual_time.unwrap_or(0.0);
            if let Some(last) = o.steps.last() {
                final_imbalance.push(last.imbalance);
            }
        }
    }
    let children = layers.partition.busy_s() + layers.benchmark.busy_s() + layers.model.busy_s();
    let self_s = traced_wall - children;
    report.check(children <= traced_wall && self_s >= 0.0, || {
        format!("layer busy times {children} s exceed the traced wall {traced_wall} s")
    });
    report.calls("core.partition.calls", &layers.partition);
    report.busy("core.partition.busy_s", &layers.partition);
    report.p50("core.partition.p50_ms", &layers.partition);
    report.calls("core.benchmark.calls", &layers.benchmark);
    report.busy("core.benchmark.busy_s", &layers.benchmark);
    let reps = layers.reps.load(Ordering::Relaxed) as f64;
    report.metric("core.benchmark.reps", reps, "count");
    report.calls("core.model.updates", &layers.model);
    report.busy("core.model.busy_s", &layers.model);
    report.metric("core.dynamic.steps", steps as f64, "count");
    report.metric("core.dynamic.units_moved", units_moved as f64, "count");
    report.metric(
        "core.dynamic.final_imbalance",
        mean(&final_imbalance),
        "ratio",
    );
    // Mean over the platforms that reached eps; 0 when none did.
    report.timing(
        "core.dynamic.time_to_eps_s",
        mean(&to_eps),
        "s",
        to_eps.len(),
    );
    report.metric("runtime.virtual_s", virtual_s, "s");
    report.timing("runtime.self_s", self_s, "s", platforms.len());
    report.timing("bench.traced_wall_s", traced_wall, "s", platforms.len());
    report.metric(
        "bench.trace_overhead_ratio",
        traced_wall / plain_wall,
        "ratio",
    );
}
