//! The distributed dynamic-balancing executor: the paper's
//! `fupermod_dynamic` loop as one SPMD rank program, written once as
//! an `async fn` over `RankComm` and run unchanged by every engine.
//!
//! Each iteration follows the paper's *partition → measure →
//! rebalance* cycle, but the measurement happens **on the ranks**:
//!
//! 1. rank 0 `scatterv`s the current distribution (each rank learns
//!    its share),
//! 2. every rank benchmarks its own share locally (the `measure`
//!    closure),
//! 3. the measured [`Point`]s are gathered onto rank 0
//!    (`gather_available`, so a dead rank yields a gap instead of an
//!    error),
//! 4. rank 0 absorbs the observations into the partial models
//!    ([`DynamicContext::absorb_observed`]), re-partitions, and
//!    `scatterv`s the new shares plus a broadcast convergence flag.
//!
//! The thread, thread-sim and TCP backends run the program on a
//! [`ThreadedComm`] through `block_on`: their ops complete
//! synchronously, so one poll finishes it. The event engine runs the
//! same futures for all `p` ranks on one thread
//! (`sim::driver`), parking ranks at collectives and
//! receives.
//!
//! On a fault-free plan this is **observation-for-observation
//! identical** to the serial [`DynamicContext::run_to_balance`]: the
//! same model points are absorbed in the same rank order, so the
//! final [`Distribution`](fupermod_core::partition::Distribution) is
//! bit-identical (verified by an integration test). Under faults the
//! loop degrades gracefully: a straggler's inflated times shift load
//! away from it, and a dead rank is deactivated
//! ([`DynamicContext::deactivate`]) so its share is repartitioned
//! across the survivors, with `fault` trace events documenting every
//! injection.

use std::future::Future;
use std::pin::pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use fupermod_core::dynamic::{DynamicContext, DynamicStep};
use fupermod_core::trace::{TraceEvent, TraceSink};
use fupermod_core::{CoreError, Point};

use crate::comm::request::{RecvRequest, Request};
use crate::comm::{run_ranks, RuntimeConfig, ThreadedComm};
use crate::error::RuntimeError;
use crate::sim::{EventSim, SimEngine};
use crate::wire::Wire;

/// The communication a rank program uses — only the ops the
/// balancing loop needs. Collectives and receive waits are `async`:
/// on the event engine they park the rank until the driver can
/// complete them. Sends and receive posts complete at once.
pub(crate) trait RankComm {
    /// A posted receive, completed by [`RankComm::wait`].
    type Recv<'a, T: Wire>
    where
        Self: 'a;

    fn rank(&self) -> usize;

    fn size(&self) -> usize;

    /// Rank `r` receives `parts[r]`; only the root passes `parts`.
    async fn scatterv<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        parts: Option<&[T]>,
    ) -> Result<T, RuntimeError>;

    /// The root receives every rank's value, `None` where a rank died.
    async fn gather_available<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<Option<T>>>, RuntimeError>;

    /// Every rank receives the root's value; only the root passes it.
    async fn bcast<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        value: Option<&T>,
    ) -> Result<T, RuntimeError>;

    /// Posts an eager send and completes it.
    fn isend<T: Wire>(&self, dst: usize, value: &T) -> Result<(), RuntimeError>;

    /// Posts a receive from `src`.
    fn irecv<T: Wire>(&self, src: usize) -> Result<Self::Recv<'_, T>, RuntimeError>;

    /// Completes a posted receive.
    async fn wait<'a, T: Wire>(&'a self, req: Self::Recv<'a, T>) -> Result<T, RuntimeError>;
}

/// The thread, thread-sim and TCP backends: every op is synchronous.
impl RankComm for ThreadedComm {
    type Recv<'a, T: Wire> = RecvRequest<'a, T>;

    fn rank(&self) -> usize {
        crate::Communicator::rank(self)
    }

    fn size(&self) -> usize {
        crate::Communicator::size(self)
    }

    async fn scatterv<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        parts: Option<&[T]>,
    ) -> Result<T, RuntimeError> {
        crate::Communicator::scatterv(self, root, parts)
    }

    async fn gather_available<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<Option<T>>>, RuntimeError> {
        crate::Communicator::gather_available(self, root, value)
    }

    async fn bcast<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        value: Option<&T>,
    ) -> Result<T, RuntimeError> {
        crate::Communicator::bcast(self, root, value)
    }

    fn isend<T: Wire>(&self, dst: usize, value: &T) -> Result<(), RuntimeError> {
        ThreadedComm::isend(self, dst, value)?.wait()
    }

    fn irecv<T: Wire>(&self, src: usize) -> Result<RecvRequest<'_, T>, RuntimeError> {
        ThreadedComm::irecv(self, src)
    }

    async fn wait<'a, T: Wire>(&'a self, req: RecvRequest<'a, T>) -> Result<T, RuntimeError> {
        req.wait()
    }
}

/// Runs a rank program whose ops never park (a [`ThreadedComm`]
/// program) to completion in one poll.
pub(crate) fn block_on<F: Future>(program: F) -> F::Output {
    match pin!(program).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => unreachable!("ThreadedComm ops complete synchronously"),
    }
}

/// How the balancing loop's redistribution phase communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapMode {
    /// Blocking collectives: `scatterv` the shares, `gather_available`
    /// the measurements, `bcast` the convergence flag — three closing
    /// barriers per iteration.
    #[default]
    Blocking,
    /// Nonblocking requests: rank 0 posts `irecv`s for the workers'
    /// measurements *before* measuring its own share (their points
    /// arrive while it computes) and pushes refined shares with
    /// `isend` — redistribution stays in flight under rank 0's own
    /// measurement, and no iteration crosses a barrier. On fault-free
    /// plans the absorbed observations are identical to
    /// [`OverlapMode::Blocking`] point for point, so the steps and the
    /// final distribution are bit-identical.
    Overlapped,
}

/// Result of a distributed balancing run.
#[derive(Debug)]
pub struct BalanceOutcome {
    /// One entry per dynamic iteration, as produced on rank 0 —
    /// identical to the serial loop's steps on a fault-free plan.
    pub steps: Vec<DynamicStep>,
    /// The final distribution's sizes (rank 0's view).
    pub final_sizes: Vec<u64>,
    /// Ranks that died during the run, ascending.
    pub dead_ranks: Vec<usize>,
    /// Per-rank terminal errors (`None` for ranks that finished
    /// cleanly). Dead and timed-out ranks record their fail-stop
    /// error here.
    pub rank_errors: Vec<Option<RuntimeError>>,
    /// Virtual makespan of the run on the sim backend (`None` on the
    /// threaded backend) — the deterministic cost the overlap
    /// benchmarks compare across [`OverlapMode`]s.
    pub virtual_time: Option<f64>,
}

impl BalanceOutcome {
    /// Whether the final step reached the balance tolerance.
    pub fn converged(&self) -> bool {
        self.steps.last().is_some_and(|s| s.converged)
    }
}

fn app_err(e: CoreError) -> RuntimeError {
    RuntimeError::App(e.to_string())
}

/// Rank 0's steps and final sizes; `None` on workers.
type RankOutput = Option<(Vec<DynamicStep>, Vec<u64>)>;

/// Runs the dynamic partitioning loop distributed over `size` ranks.
///
/// * `config` selects the backend (thread or sim) and engine, fault
///   plan, and trace sink.
/// * `make_ctx` builds the [`DynamicContext`] — it is invoked once,
///   for rank 0 (partial models and the partitioner live only there,
///   exactly like the paper's root process).
/// * `measure(rank, d)` benchmarks `d` units on `rank`; it runs
///   concurrently on the rank threads and must be deterministic per
///   `(rank, d)` for reproducible runs.
/// * `max_steps` bounds the number of iterations.
///
/// # Errors
///
/// Returns rank 0's failure, if any: measurement/model errors
/// ([`RuntimeError::App`]) or communication failures. Non-root rank
/// failures are reported in [`BalanceOutcome::rank_errors`].
///
/// # Panics
///
/// Panics if the context built by `make_ctx` does not have `size`
/// processes, or if a rank thread panics.
pub fn run_to_balance_distributed<F, M>(
    config: RuntimeConfig,
    size: usize,
    make_ctx: F,
    measure: M,
    max_steps: usize,
) -> Result<BalanceOutcome, RuntimeError>
where
    F: FnOnce() -> DynamicContext + Send,
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    run_to_balance_distributed_with(config, size, make_ctx, measure, max_steps, OverlapMode::default())
}

/// [`run_to_balance_distributed`] with an explicit [`OverlapMode`]:
/// `Blocking` is the collective path, `Overlapped` pipelines the
/// measurement gathers and share redistribution with nonblocking
/// requests. Both modes produce bit-identical steps and final sizes
/// on fault-free plans.
///
/// The engine only picks the runner: one OS thread per rank, or the
/// event engine's single-threaded driver. Both run the same program.
///
/// # Errors
///
/// Exactly those of [`run_to_balance_distributed`], plus
/// [`RuntimeError::App`] when the event engine is selected without a
/// sim topology.
///
/// # Panics
///
/// Exactly those of [`run_to_balance_distributed`].
pub fn run_to_balance_distributed_with<F, M>(
    config: RuntimeConfig,
    size: usize,
    make_ctx: F,
    measure: M,
    max_steps: usize,
    mode: OverlapMode,
) -> Result<BalanceOutcome, RuntimeError>
where
    F: FnOnce() -> DynamicContext + Send,
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    let (plan, sink) = (config.plan_ref().clone(), config.sink_ref().clone());
    let (measure, sink) = (&measure, &sink);
    // `make_ctx` is FnOnce; rank 0 takes it out of the slot.
    let ctx_slot = Mutex::new(Some(make_ctx));
    let take_ctx = |rank: usize| {
        (rank == 0).then(|| {
            let make = ctx_slot.lock().expect("ctx slot poisoned").take();
            make.expect("make_ctx taken once")()
        })
    };
    let (results, dead_ranks, virtual_time) = if config.engine() == SimEngine::Event {
        let sim = EventSim::from_config(&config, size)?;
        let (results, sim) = crate::sim::driver::run(sim, |mut comm| {
            let (ctx, factor) = (take_ctx(comm.rank()), plan.straggler_factor(comm.rank()));
            async move {
                balance_rank(&mut comm, ctx, measure, max_steps, mode, factor, sink).await
            }
        });
        (results, sim.dead_ranks(), Some(sim.max_time()))
    } else {
        let (comms, handle) = config.build_with_handle(size);
        let results = run_ranks(comms, |mut comm: ThreadedComm| {
            let (ctx, factor) = (take_ctx(comm.rank()), plan.straggler_factor(comm.rank()));
            block_on(balance_rank(&mut comm, ctx, measure, max_steps, mode, factor, sink))
        });
        (results, handle.dead_ranks(), handle.virtual_time())
    };
    let mut results = results.into_iter();
    let root = results.next().expect("rank 0 exists")?;
    let (steps, final_sizes) = root.expect("rank 0 returns its steps");
    let rank_errors = std::iter::once(None).chain(results.map(Result::err)).collect();
    Ok(BalanceOutcome {
        steps,
        final_sizes,
        dead_ranks,
        rank_errors,
        virtual_time,
    })
}

/// One rank's whole side of the distributed balancing loop, for the
/// multi-process TCP path, where each OS process drives exactly one
/// rank over [`crate::net::connect`]: the same program
/// [`run_to_balance_distributed_with`] runs for every rank.
///
/// * `ctx` must be `Some` exactly on rank 0 (the models and the
///   partitioner live only there); workers pass `None`.
/// * `straggler_factor` is this rank's compute inflation
///   ([`crate::fault::FaultPlan::straggler_factor`]) — under TCP each
///   process evaluates its own plan, so the factor is passed in
///   rather than read from a shared plan.
///
/// Returns `Some((steps, final_sizes))` on rank 0, `None` on workers.
///
/// # Errors
///
/// This rank's failure: measurement/model errors
/// ([`RuntimeError::App`]) or communication failures.
///
/// # Panics
///
/// Panics if `ctx` presence does not match the rank, or if rank 0's
/// context does not have `comm.size()` processes.
pub fn run_balance_rank<M>(
    comm: &mut ThreadedComm,
    ctx: Option<DynamicContext>,
    measure: &M,
    max_steps: usize,
    mode: OverlapMode,
    straggler_factor: f64,
    sink: &Arc<dyn TraceSink>,
) -> Result<RankOutput, RuntimeError>
where
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    block_on(balance_rank(comm, ctx, measure, max_steps, mode, straggler_factor, sink))
}

/// The balancing rank program.
async fn balance_rank<C: RankComm, M>(
    comm: &mut C,
    ctx: Option<DynamicContext>,
    measure: &M,
    max_steps: usize,
    mode: OverlapMode,
    factor: f64,
    sink: &Arc<dyn TraceSink>,
) -> Result<RankOutput, RuntimeError>
where
    M: Fn(usize, u64) -> Result<Point, CoreError>,
{
    let rank = comm.rank();
    assert_eq!(ctx.is_some(), rank == 0, "rank 0, and only rank 0, owns the context");
    // Route the context's partition_step/dynamic_converged events
    // into the run's trace sink, so a traced distributed run records
    // its full dynamic history (the report tool rebuilds the
    // imbalance table from it).
    let mut ctx = ctx.map(|ctx| ctx.with_trace(sink.clone()));
    assert!(
        ctx.as_ref().is_none_or(|c| c.dist().sizes().len() == comm.size()),
        "context size must match communicator size"
    );
    // Measures this rank's share, applying the straggler compute factor.
    let measure = |d: u64| {
        let mut point = measure(rank, d.max(1)).map_err(app_err)?;
        if factor != 1.0 {
            let extra = point.t * (factor - 1.0);
            point.t *= factor;
            fupermod_core::telemetry::record_fault("straggler");
            sink.record(&TraceEvent::Fault {
                rank,
                kind: "straggler".to_owned(),
                peer: -1,
                attempt: 0,
                seconds: extra,
            });
        }
        Ok(point)
    };
    let steps = match (mode, ctx.as_mut()) {
        (OverlapMode::Blocking, ctx) => blocking_loop(comm, ctx, &measure, max_steps, sink).await?,
        (OverlapMode::Overlapped, Some(ctx)) => {
            root_overlapped(comm, ctx, &measure, max_steps, sink).await?
        }
        (OverlapMode::Overlapped, None) => {
            worker_overlapped(comm, &measure, max_steps).await?;
            Vec::new()
        }
    };
    Ok(ctx.map(|ctx| (steps, ctx.dist().sizes())))
}

/// Rank 0 absorbs one step's observations: a `None` slot is a dead
/// rank, deactivated so its load is repartitioned across the
/// survivors; then the context repartitions.
fn absorb(
    ctx: &mut DynamicContext,
    slots: Vec<Option<Point>>,
    sink: &Arc<dyn TraceSink>,
) -> Result<DynamicStep, RuntimeError> {
    let mut degrade = |rank: usize| {
        if ctx.active()[rank] {
            ctx.deactivate(rank);
            fupermod_core::telemetry::record_fault("degraded");
            sink.record(&TraceEvent::Fault {
                rank: 0,
                kind: "degraded".to_owned(),
                peer: rank as i64,
                attempt: 0,
                seconds: 0.0,
            });
        }
        Point::single(0, 0.0)
    };
    let observed = (0..).zip(slots);
    let observed = observed.map(|(rank, slot)| slot.unwrap_or_else(|| degrade(rank))).collect();
    ctx.absorb_observed(observed).map_err(app_err)
}

/// `Ok(None)` when `result` failed only because `peer` is dead.
fn unless_dead<T>(result: Result<T, RuntimeError>, peer: usize) -> Result<Option<T>, RuntimeError> {
    match result {
        Ok(v) => Ok(Some(v)),
        Err(RuntimeError::RankDead { rank, .. }) if rank == peer => Ok(None),
        Err(e) => Err(e),
    }
}

/// The blocking loop, one program for the root (`ctx` is `Some`) and
/// the workers: three collectives close every iteration.
async fn blocking_loop<C: RankComm>(
    comm: &mut C,
    mut ctx: Option<&mut DynamicContext>,
    measure: &impl Fn(u64) -> Result<Point, RuntimeError>,
    max_steps: usize,
    sink: &Arc<dyn TraceSink>,
) -> Result<Vec<DynamicStep>, RuntimeError> {
    let mut steps = Vec::new();
    let shares = |ctx: &Option<&mut DynamicContext>| ctx.as_ref().map(|c| c.dist().sizes());
    let mut my_d = comm.scatterv(0, shares(&ctx).as_deref()).await?;
    for _ in 0..max_steps {
        let point = measure(my_d)?;
        let gathered = comm.gather_available(0, &point).await?;
        let mut converged = false;
        if let Some(ctx) = ctx.as_deref_mut() {
            let step = absorb(ctx, gathered.expect("root receives the gather"), sink)?;
            converged = step.converged;
            steps.push(step);
        }
        my_d = comm.scatterv(0, shares(&ctx).as_deref()).await?;
        let root = ctx.is_some().then_some(&converged);
        if comm.bcast(0, root).await? {
            break;
        }
    }
    Ok(steps)
}

/// Sends `[share, converged]` to every worker, tolerating a dead one
/// (the survivors keep balancing over the remaining ranks); returns
/// rank 0's own share.
fn send_shares<C: RankComm>(comm: &C, sizes: &[u64], converged: bool) -> Result<u64, RuntimeError> {
    for (dst, &share) in sizes.iter().enumerate().skip(1) {
        unless_dead(comm.isend(dst, &vec![share, u64::from(converged)]), dst)?;
    }
    Ok(sizes[0])
}

/// Overlapped root loop: shares go out as eager `isend`s (no closing
/// barrier), and the `irecv`s for the workers' next measurements are
/// posted *before* rank 0 measures its own share, so the workers'
/// points — and any fault-injected delivery latency on them — are in
/// flight under rank 0's compute. Observations are absorbed in the
/// same ascending rank order as the blocking gather.
async fn root_overlapped<C: RankComm>(
    comm: &C,
    ctx: &mut DynamicContext,
    measure: &impl Fn(u64) -> Result<Point, RuntimeError>,
    max_steps: usize,
    sink: &Arc<dyn TraceSink>,
) -> Result<Vec<DynamicStep>, RuntimeError> {
    let mut steps = Vec::new();
    let mut my_d = send_shares(comm, &ctx.dist().sizes(), false)?;
    for _ in 0..max_steps {
        let mut pending = Vec::with_capacity(comm.size() - 1);
        for src in 1..comm.size() {
            pending.push(unless_dead(comm.irecv::<Point>(src), src)?);
        }
        let mut slots = vec![Some(measure(my_d)?)];
        for (src, req) in (1..).zip(pending) {
            slots.push(match req {
                Some(req) => unless_dead(comm.wait(req).await, src)?,
                None => None,
            });
        }
        let step = absorb(ctx, slots, sink)?;
        let converged = step.converged;
        steps.push(step);
        my_d = send_shares(comm, &ctx.dist().sizes(), converged)?;
        if converged {
            break;
        }
    }
    Ok(steps)
}

/// Overlapped worker loop: receives `[share, converged]` messages and
/// pushes measurements back with eager `isend`s — no barrier crossing.
async fn worker_overlapped<C: RankComm>(
    comm: &C,
    measure: &impl Fn(u64) -> Result<Point, RuntimeError>,
    max_steps: usize,
) -> Result<(), RuntimeError> {
    let (mut my_d, _) = recv_share(comm).await?;
    for _ in 0..max_steps {
        comm.isend(0, &measure(my_d)?)?;
        let converged;
        (my_d, converged) = recv_share(comm).await?;
        if converged {
            break;
        }
    }
    Ok(())
}

async fn recv_share<C: RankComm>(comm: &C) -> Result<(u64, bool), RuntimeError> {
    let msg: Vec<u64> = comm.wait(comm.irecv(0)?).await?;
    match msg.as_slice() {
        [share, converged] => Ok((*share, *converged != 0)),
        _ => Err(RuntimeError::Decode {
            what: "share",
            detail: format!("share message has {} words, expected 2", msg.len()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fupermod_core::model::{Model, PiecewiseModel};
    use fupermod_core::partition::GeometricPartitioner;

    fn make_ctx(total: u64, eps: f64, size: usize) -> DynamicContext {
        let models: Vec<Box<dyn Model>> = (0..size)
            .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
            .collect();
        DynamicContext::new(Box::new(GeometricPartitioner::default()), models, total, eps)
    }

    fn measure(rank: usize, d: u64) -> Result<Point, CoreError> {
        let speed = [100.0, 25.0, 50.0][rank];
        Ok(Point::single(d, d as f64 / speed))
    }

    #[test]
    fn distributed_loop_balances_a_three_rank_platform() {
        let outcome = run_to_balance_distributed(
            RuntimeConfig::thread(),
            3,
            || make_ctx(700, 0.05, 3),
            measure,
            20,
        )
        .unwrap();
        assert!(outcome.converged());
        assert!(outcome.dead_ranks.is_empty());
        assert!(outcome.rank_errors.iter().all(Option::is_none));
        // 4:1:2 speeds over 700 units → 400/100/200.
        assert_eq!(outcome.final_sizes, vec![400, 100, 200]);
    }
}
