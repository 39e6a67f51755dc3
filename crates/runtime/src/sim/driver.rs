//! Runs ordinary rank programs on the event engine: each rank is an
//! `async fn` over [`RankComm`], the same program the thread and TCP
//! backends run through [`crate::executor::block_on`], and one
//! single-threaded driver polls the `p` futures against one
//! [`EventSim`].
//!
//! The driver's rules (docs/RUNTIME.md §9):
//!
//! * **Park.** Ranks are polled in ascending order, each until it
//!   parks: on a collective, or on a receive whose message is not in
//!   the mailbox yet. Point-to-point sends and posts never park.
//! * **Wake.** A parked receive becomes runnable once its message is
//!   in the mailbox or an endpoint is dead.
//! * **Cohort.** When no rank can run and every running rank is
//!   parked on the same collective, the driver calls the lockstep
//!   [`EventSim`] collective once for the cohort and hands each rank
//!   its slot.
//! * **Starve.** When no rank can run otherwise, the lowest parked
//!   receive resolves through the engine's starvation rule: the
//!   thread backend's deadline `Timeout`, and the waiter fail-stops.
//! * **Halt.** A program that returns, `Ok` or `Err`, is halted and
//!   leaves every later cohort, as a returned rank thread does.

use std::any::Any;
use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::error::RuntimeError;
use crate::executor::RankComm;
use crate::wire::Wire;

use super::engine::{EventSim, RankResults, RecvTicket};

/// Type-erased deposits, one slot per rank.
type Deposits = Vec<Option<Box<dyn Any>>>;

/// Runs one collective for the cohort over the ranks' deposits (the
/// monomorphised entry point of one `EventSim` collective) and
/// returns its typed `RankResults`, type-erased.
type Runner = fn(&mut EventSim, usize, Deposits) -> Box<dyn Any>;

/// A rank program in flight.
type Program<'a, T> = Pin<Box<dyn Future<Output = Result<T, RuntimeError>> + 'a>>;

/// What a rank waits for.
enum Park {
    /// Runnable.
    Ready,
    /// A receive from this source with no message yet.
    Recv(usize),
    /// A receive the driver resolves through starvation on the next
    /// poll.
    Starve,
    /// A collective: op name, root, this rank's deposit, runner.
    Collective(&'static str, usize, Option<Box<dyn Any>>, Runner),
    /// A collective whose outcome waits in `Shared::outcome`.
    Done,
}

struct Shared {
    sim: EventSim,
    park: Vec<Park>,
    /// The last collective's `RankResults`; each rank takes its slot.
    outcome: Box<dyn Any>,
}

impl Shared {
    fn runnable(&self, rank: usize) -> bool {
        match self.park[rank] {
            Park::Ready | Park::Starve | Park::Done => true,
            Park::Recv(src) => self.sim.recv_ready(rank, src),
            Park::Collective(..) => false,
        }
    }

    /// No rank can run: starves the lowest parked receive, or runs
    /// the collective every running rank is parked on. Returns
    /// `false` when nothing is parked (every program has returned).
    fn unblock(&mut self) -> bool {
        if let Some(rank) = self.park.iter().position(|p| matches!(p, Park::Recv(_))) {
            self.park[rank] = Park::Starve;
            return true;
        }
        let Some(first) = self.park.iter().position(|p| matches!(p, Park::Collective(..))) else {
            return false;
        };
        let Park::Collective(op, root, _, run) = self.park[first] else {
            unreachable!()
        };
        let mut deposits: Deposits = Vec::with_capacity(self.park.len());
        let mut cohort = Vec::new();
        for (rank, park) in self.park.iter_mut().enumerate() {
            match std::mem::replace(park, Park::Ready) {
                Park::Collective(o, r, deposit, _) if (o, r) == (op, root) => {
                    deposits.push(deposit);
                    cohort.push(rank);
                }
                Park::Collective(o, r, ..) => panic!(
                    "rank {rank} entered {o} (root {r}) \
                     while rank {first} entered {op} (root {root})"
                ),
                other => {
                    *park = other;
                    deposits.push(None);
                }
            }
        }
        self.outcome = run(&mut self.sim, root, deposits);
        for rank in cohort {
            self.park[rank] = Park::Done;
        }
        true
    }
}

/// One rank's handle on the event engine.
pub(crate) struct EventComm {
    rank: usize,
    size: usize,
    shared: Rc<RefCell<Shared>>,
}

impl EventComm {
    /// Parks this rank on a collective until the cohort has run it;
    /// `run` must return the engine's `RankResults<R>`.
    async fn collective<R: 'static>(
        &self,
        op: &'static str,
        root: usize,
        deposit: Option<Box<dyn Any>>,
        run: Runner,
    ) -> Result<R, RuntimeError> {
        let mut entry = Some(Park::Collective(op, root, deposit, run));
        poll_fn(|_| {
            let mut shared = self.shared.borrow_mut();
            match entry.take() {
                // Dead ranks are in no cohort: fail at once, as the
                // thread backend's op prologue does.
                Some(_) if !shared.sim.is_running(self.rank) => {
                    Poll::Ready(Err(RuntimeError::RankDead { op, rank: self.rank }))
                }
                Some(entry) => {
                    shared.park[self.rank] = entry;
                    Poll::Pending
                }
                None => {
                    let park = std::mem::replace(&mut shared.park[self.rank], Park::Ready);
                    let done = matches!(park, Park::Done);
                    assert!(done, "a parked collective is polled only once done");
                    let outcome: &mut RankResults<R> =
                        shared.outcome.downcast_mut().expect("one result type per collective");
                    let result = outcome[self.rank].take();
                    Poll::Ready(result.expect("every cohort rank has an outcome"))
                }
            }
        })
        .await
    }
}

fn unbox<T: 'static>(value: Box<dyn Any>) -> T {
    *value.downcast().expect("every cohort rank uses one payload type")
}

fn take_root<T: 'static>(deposits: &mut Deposits, root: usize) -> Option<T> {
    deposits.get_mut(root).and_then(Option::take).map(unbox)
}

impl RankComm for EventComm {
    type Recv<'a, T: Wire> = RecvTicket;

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    async fn scatterv<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        parts: Option<&[T]>,
    ) -> Result<T, RuntimeError> {
        let deposit = parts.map(|p| Box::new(p.to_vec()) as Box<dyn Any>);
        let run: Runner = |sim, root, mut deposits| {
            let parts: Vec<T> = take_root(&mut deposits, root).unwrap_or_default();
            Box::new(sim.scatterv::<T>(root, &parts))
        };
        self.collective("scatterv", root, deposit, run).await
    }

    async fn gather_available<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<Option<T>>>, RuntimeError> {
        let deposit = Box::new(value.clone()) as Box<dyn Any>;
        let run: Runner = |sim, root, deposits| {
            // Ranks outside the cohort are never read: any cohort
            // member's value fills their slots.
            let filler: T = deposits
                .iter()
                .flatten()
                .find_map(|v| v.downcast_ref::<T>().cloned())
                .expect("a cohort is never empty");
            let values: Vec<T> = deposits
                .into_iter()
                .map(|v| v.map_or_else(|| filler.clone(), unbox))
                .collect();
            Box::new(sim.gather_available(root, &values))
        };
        let gathered: Option<Arc<Vec<Option<T>>>> =
            self.collective("gatherv", root, Some(deposit), run).await?;
        Ok(gathered.map(Arc::unwrap_or_clone))
    }

    async fn bcast<T: Wire + Clone + 'static>(
        &mut self,
        root: usize,
        value: Option<&T>,
    ) -> Result<T, RuntimeError> {
        let deposit = value.map(|v| Box::new(v.clone()) as Box<dyn Any>);
        let run: Runner = |sim, root, mut deposits| {
            let bytes = take_root::<T>(&mut deposits, root).map_or_else(Vec::new, |v| v.to_bytes());
            Box::new(sim.bcast_encoded::<T>(root, &bytes))
        };
        self.collective("bcast", root, deposit, run).await
    }

    fn isend<T: Wire>(&self, dst: usize, value: &T) -> Result<(), RuntimeError> {
        let mut shared = self.shared.borrow_mut();
        let ticket = shared.sim.isend(self.rank, dst, value)?;
        shared.sim.isend_wait(ticket);
        Ok(())
    }

    fn irecv<T: Wire>(&self, src: usize) -> Result<RecvTicket, RuntimeError> {
        self.shared.borrow_mut().sim.irecv_post(self.rank, src)
    }

    async fn wait<T: Wire>(&self, ticket: RecvTicket) -> Result<T, RuntimeError> {
        let (src, mut ticket) = (ticket.src, Some(ticket));
        poll_fn(|_| {
            let mut shared = self.shared.borrow_mut();
            let starve = matches!(shared.park[self.rank], Park::Starve);
            if starve || shared.sim.recv_ready(self.rank, src) {
                shared.park[self.rank] = Park::Ready;
                let ticket = ticket.take().expect("a completed receive is not polled again");
                return Poll::Ready(shared.sim.irecv_wait(ticket));
            }
            shared.park[self.rank] = Park::Recv(src);
            Poll::Pending
        })
        .await
    }
}

/// Runs `program` for every rank of `sim` to completion and returns
/// each rank's result with the engine (for its clocks and liveness).
pub(crate) fn run<'a, T, P, F>(
    sim: EventSim,
    mut program: P,
) -> (Vec<Result<T, RuntimeError>>, EventSim)
where
    P: FnMut(EventComm) -> F,
    F: Future<Output = Result<T, RuntimeError>> + 'a,
{
    let size = sim.size();
    let park = (0..size).map(|_| Park::Ready).collect();
    let shared = Rc::new(RefCell::new(Shared { sim, park, outcome: Box::new(()) }));
    let mut ranks: Vec<Option<Program<'a, T>>> = (0..size)
        .map(|rank| {
            let shared = Rc::clone(&shared);
            Some(Box::pin(program(EventComm { rank, size, shared })) as Pin<Box<_>>)
        })
        .collect();
    let mut results: Vec<Option<F::Output>> = (0..size).map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        let mut progressed = false;
        for (rank, slot) in ranks.iter_mut().enumerate() {
            let Some(future) = slot else { continue };
            if !shared.borrow().runnable(rank) {
                continue;
            }
            progressed = true;
            if let Poll::Ready(result) = future.as_mut().poll(&mut cx) {
                shared.borrow_mut().sim.halt(rank);
                results[rank] = Some(result);
                *slot = None;
            }
        }
        if !progressed && !shared.borrow_mut().unblock() {
            break;
        }
    }
    drop(ranks);
    let shared = Rc::into_inner(shared).expect("rank handles dropped with their programs");
    let results = results
        .into_iter()
        .map(|r| r.expect("every rank program returned"))
        .collect();
    (results, shared.into_inner().sim)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use fupermod_core::trace::{MemorySink, TraceEvent};
    use fupermod_platform::comm::LinkModel;

    use super::*;
    use crate::comm::{run_ranks, RuntimeConfig};
    use crate::executor::block_on;
    use crate::fault::FaultPlan;
    use crate::sim::SimEngine;

    type Outcome = (Vec<Result<u64, String>>, BTreeMap<usize, Vec<String>>);

    /// Runs the generic rank program `$prog` on the thread-backed sim
    /// and on the event driver under `$plan`; returns each engine's
    /// per-rank results (errors as strings) and per-rank trace
    /// streams (the thread backend's global interleaving is racy,
    /// each rank's own sequence is not).
    macro_rules! on_both_engines {
        ($prog:ident, $size:expr, $plan:expr) => {{
            let on = |engine: SimEngine| -> Outcome {
                let sink = Arc::new(MemorySink::new());
                let config = RuntimeConfig::sim($size, LinkModel::ethernet())
                    .with_plan(FaultPlan::from_json($plan).unwrap())
                    .with_trace(sink.clone())
                    .with_engine(engine);
                let results = match engine {
                    SimEngine::Thread => {
                        run_ranks(config.build($size), |mut c| block_on($prog(&mut c)))
                    }
                    SimEngine::Event => {
                        let sim = EventSim::from_config(&config, $size).unwrap();
                        run(sim, |mut c| async move { $prog(&mut c).await }).0
                    }
                };
                let mut streams: BTreeMap<usize, Vec<String>> = BTreeMap::new();
                for e in sink.take() {
                    let (TraceEvent::Comm { rank, .. } | TraceEvent::Fault { rank, .. }) = &e else {
                        panic!("unexpected event {e:?}")
                    };
                    streams.entry(*rank).or_default().push(e.to_jsonl());
                }
                let results = results.into_iter().map(|r| r.map_err(|e| e.to_string()));
                (results.collect(), streams)
            };
            (on(SimEngine::Thread), on(SimEngine::Event))
        }};
    }

    /// Rank 0 sends one value and returns; rank 1 waits for a second
    /// that never comes while its sender stays alive.
    async fn one_message_short<C: RankComm>(comm: &mut C) -> Result<u64, RuntimeError> {
        if comm.rank() == 0 {
            comm.isend(1, &7u64)?;
            return Ok(0);
        }
        let first: u64 = comm.wait(comm.irecv(0)?).await?;
        let second: u64 = comm.wait(comm.irecv(0)?).await?;
        Ok(first + second)
    }

    #[test]
    fn starved_receive_times_out_like_the_thread_engine() {
        let (thread, event) = on_both_engines!(one_message_short, 2, r#"{"deadline": 0.3}"#);
        assert_eq!(thread, event);
        let (results, streams) = event;
        assert_eq!(results[0], Ok(0));
        assert!(results[1].as_ref().unwrap_err().contains("0.3 s deadline"), "{results:?}");
        assert!(streams[&1].last().unwrap().contains(r#""kind":"timeout""#), "{streams:?}");
    }

    /// Rank 2 fails mid-loop; the others keep exchanging with rank 0
    /// (rank 0's last sends to rank 2 land in an unread mailbox).
    async fn one_rank_quits<C: RankComm>(comm: &mut C) -> Result<u64, RuntimeError> {
        let mut sum = comm.scatterv(0, Some(&[1u64, 2, 3, 4][..])).await?;
        for step in 0..3u64 {
            if comm.rank() == 0 {
                for dst in 1..comm.size() {
                    comm.isend(dst, &step)?;
                }
                for src in [1, 3] {
                    sum += comm.wait::<u64>(comm.irecv(src)?).await?;
                }
            } else if comm.rank() == 2 && step == 1 {
                return Err(RuntimeError::App("rank 2 gives up".to_owned()));
            } else {
                let got: u64 = comm.wait(comm.irecv(0)?).await?;
                if comm.rank() != 2 {
                    comm.isend(0, &(got + sum))?;
                }
            }
        }
        Ok(sum)
    }

    #[test]
    fn failing_program_is_halted_while_the_others_finish() {
        let (thread, event) = on_both_engines!(one_rank_quits, 4, "{}");
        assert_eq!(thread, event);
        let (results, _) = event;
        assert_eq!(results[2], Err("application error: rank 2 gives up".to_owned()));
        assert!(results.iter().enumerate().all(|(r, res)| r == 2 || res.is_ok()));
    }
}
