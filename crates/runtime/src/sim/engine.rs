//! The event interpreter: per-rank state machines, the binary-heap
//! dispatch queue, and instruction-level mirrors of the thread
//! backend's op lifecycle (`op_begin` / `op_end` / fault-plan send
//! rules / Lamport delivery merge / barrier-generation join).
//!
//! Everything here is single-threaded: a "rank" is a handful of
//! vector slots, and the only dynamically sized state is the live
//! mailbox entries plus the per-collective scratch of the currently
//! dispatching cohort.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use fupermod_core::trace::{TraceEvent, TraceSink};
use fupermod_platform::comm::{SimComm, Topology};

use crate::collective::AlgorithmPolicy;
use crate::comm::RuntimeConfig;
use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::sim::SimEngine;
use crate::wire::Wire;

/// Per-rank collective outcome: `None` = the rank was not
/// participating (it had already died or halted on an earlier error).
pub type RankResults<T> = Vec<Option<Result<T, RuntimeError>>>;

/// A deposited virtual-time charge, applied when the generation
/// completes (mirror of the thread backend's `pending_charge`).
pub(super) enum ChargeSpec {
    /// Explicit per-round `(src, dst, bytes)` hop plan.
    Rounds(Vec<Vec<(usize, usize, f64)>>),
    /// Closed-form uniform ring: `rounds` rounds of `bytes`-sized
    /// nearest-neighbour hops from bit-identical clocks
    /// ([`SimComm::charge_uniform_ring`]).
    UniformRing {
        /// Framed per-hop message size, bytes.
        bytes: f64,
        /// Number of ring rounds.
        rounds: usize,
    },
}

/// One undelivered message (mirror of the thread backend's mailbox
/// envelope).
pub(super) struct Env {
    pub(super) bytes: Vec<u8>,
    /// Injected delivery delay charged to the receiver, seconds.
    pub(super) delay: f64,
    /// Sender's Lamport stamp at send time.
    pub(super) lamport: u64,
    /// Post-time clock snapshot for `isend` (charged with
    /// [`SimComm::arrive`] instead of a fresh [`SimComm::send`]).
    pub(super) vready: Option<f64>,
}

/// Everything an op mirror needs to finish: the start stamp for the
/// trace event and the generation current when the op began.
#[derive(Clone, Copy)]
pub struct OpStart {
    pub(super) virt: f64,
    pub(super) gen: u64,
}

/// A collective's cohort: the ranks that entered it, in `(clock,
/// rank)` dispatch order, each with its begin stamp.
pub(super) type Cohort = Vec<(usize, OpStart)>;

/// Pending nonblocking send: finish with [`EventSim::isend_wait`].
pub struct SendTicket {
    pub(super) rank: usize,
    pub(super) dst: usize,
    pub(super) bytes_len: u64,
    pub(super) start: OpStart,
}

/// Pending nonblocking receive: finish with [`EventSim::irecv_wait`].
pub struct RecvTicket {
    pub(super) rank: usize,
    pub(super) src: usize,
    pub(super) start: OpStart,
}

/// What happened to one collective-phase send (tolerant call sites
/// map [`SendFate::DeadDst`] to "counted but lost").
pub(super) enum SendFate {
    /// Enqueued: deliver with [`EventSim::deliver`].
    Delivered {
        /// Sender's Lamport stamp at send time.
        stamp: u64,
        /// Injected delivery delay, seconds.
        delay: f64,
    },
    /// The destination is dead (`RankDead { rank: dst }` on the
    /// non-tolerant paths).
    DeadDst,
    /// A drop rule exhausted the retry budget.
    Exhausted(RuntimeError),
}

/// The discrete-event simulation engine: every rank of the simulated
/// communicator as a few vector slots, collectives dispatched from a
/// binary-heap event queue in `(virtual clock, rank)` order. Rank
/// programs run on it through the rank driver; the lockstep API
/// below takes one call for all ranks at once.
///
/// See the [module docs](crate::sim) for the parity contract and
/// `docs/RUNTIME.md` §9 for ordering/determinism details.
pub struct EventSim {
    pub(super) size: usize,
    pub(super) sim: SimComm,
    pub(super) plan: FaultPlan,
    pub(super) sink: Arc<dyn TraceSink>,
    pub(super) policy: AlgorithmPolicy,
    /// Fail-stop flags (mirror of `PlaneState::dead`).
    pub(super) dead: Vec<bool>,
    /// Membership agreed at the last completed generation.
    pub(super) agreed_alive: Vec<bool>,
    /// Schema-v3 Lamport clocks.
    pub(super) lamport: Vec<u64>,
    /// Per-rank op counters (death rules fire on these).
    pub(super) ops: Vec<u64>,
    /// Barrier generation counter.
    pub(super) generation: u64,
    /// Deterministic fault-rule counters (mirror order: rule index).
    pub(super) delay_counts: Vec<u64>,
    pub(super) drop_counts: Vec<u64>,
    /// Charge deposited by the current collective's electing rank.
    pub(super) pending_charge: Option<ChargeSpec>,
    /// Point-to-point mailboxes, FIFO per `(src, dst)` pair.
    pub(super) mail: HashMap<(usize, usize), VecDeque<Env>>,
    /// Which ranks are still executing their program (false once a
    /// rank died or its program returned).
    pub(super) running: Vec<bool>,
    /// Dispatched event counter (op begins/ends, deliveries,
    /// coalesced fast-path rounds) for events/sec reporting.
    pub(super) events: u64,
    /// Scratch heap for clock-ordered cohort dispatch.
    pub(super) heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl std::fmt::Debug for EventSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSim")
            .field("size", &self.size)
            .field("generation", &self.generation)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl EventSim {
    /// Builds an engine over `topo` with a fault plan, trace sink and
    /// collective policy.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty.
    pub fn new(
        topo: Topology,
        plan: FaultPlan,
        sink: Arc<dyn TraceSink>,
        policy: AlgorithmPolicy,
    ) -> Self {
        let size = topo.size();
        assert!(size > 0, "communicator needs at least one rank");
        Self {
            size,
            sim: SimComm::with_topology(topo),
            delay_counts: vec![0; plan.delays.len()],
            drop_counts: vec![0; plan.drops.len()],
            plan,
            sink,
            policy,
            dead: vec![false; size],
            agreed_alive: vec![true; size],
            lamport: vec![0; size],
            ops: vec![0; size],
            generation: 0,
            pending_charge: None,
            mail: HashMap::new(),
            running: vec![true; size],
            events: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Builds an engine from a [`RuntimeConfig`] that selected the
    /// event engine and a sim topology.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::App`] when the config is thread-backed (no
    /// topology) or the topology size disagrees with `size`.
    pub fn from_config(config: &RuntimeConfig, size: usize) -> Result<Self, RuntimeError> {
        debug_assert_eq!(config.engine(), SimEngine::Event);
        let Some(topo) = config.sim_topology_ref() else {
            return Err(RuntimeError::App(
                "the event engine needs the sim backend (a topology); \
                 thread-clock runs must use --sim-engine thread"
                    .to_owned(),
            ));
        };
        if topo.size() != size {
            return Err(RuntimeError::App(format!(
                "sim topology size mismatch: topology has {} ranks, run asked for {size}",
                topo.size()
            )));
        }
        Ok(Self::new(
            topo.clone(),
            config.plan_ref().clone(),
            Arc::clone(config.sink_ref()),
            config.policy_ref(),
        ))
    }

    // ----- inspection --------------------------------------------------

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Per-rank virtual clocks, seconds.
    pub fn virtual_times(&self) -> Vec<f64> {
        (0..self.size).map(|r| self.sim.time(r)).collect()
    }

    /// Maximum virtual time across ranks.
    pub fn max_time(&self) -> f64 {
        self.sim.max_time()
    }

    /// Total virtual seconds spent communicating.
    pub fn comm_seconds(&self) -> f64 {
        self.sim.comm_seconds()
    }

    /// Liveness snapshot.
    pub fn alive(&self) -> Vec<bool> {
        self.dead.iter().map(|&d| !d).collect()
    }

    /// Ranks that have died, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead
            .iter()
            .enumerate()
            .filter_map(|(r, &d)| d.then_some(r))
            .collect()
    }

    /// Whether `rank`'s program is still executing (alive and no op
    /// has returned an error).
    pub fn is_running(&self, rank: usize) -> bool {
        self.running[rank]
    }

    /// Total dispatched events so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Schema-v3 Lamport clocks snapshot.
    pub fn lamports(&self) -> Vec<u64> {
        self.lamport.clone()
    }

    /// Stops dispatching ops for `rank` (its simulated program ended,
    /// normally or on error).
    pub fn halt(&mut self, rank: usize) {
        self.running[rank] = false;
    }

    // ----- op lifecycle mirrors ---------------------------------------

    pub(super) fn fault(&self, rank: usize, kind: &str, peer: i64, attempt: u32, seconds: f64) {
        fupermod_core::telemetry::record_fault(kind);
        self.sink.record(&TraceEvent::Fault {
            rank,
            kind: kind.to_owned(),
            peer,
            attempt,
            seconds,
        });
    }

    pub(super) fn check_rank(&self, op: &'static str, rank: usize) -> Result<(), RuntimeError> {
        if rank >= self.size {
            return Err(RuntimeError::InvalidRank {
                op,
                rank,
                size: self.size,
            });
        }
        Ok(())
    }

    /// Common op prologue mirror: self-death check, op counting,
    /// Lamport tick, scheduled death, straggler latency.
    pub(super) fn op_begin(
        &mut self,
        op: &'static str,
        rank: usize,
    ) -> Result<OpStart, RuntimeError> {
        if self.dead[rank] {
            return Err(RuntimeError::RankDead { op, rank });
        }
        self.events += 1;
        self.ops[rank] += 1;
        self.lamport[rank] = self.lamport[rank].wrapping_add(1);
        let gen = self.generation;
        if let Some(after) = self.plan.death_after(rank) {
            if self.ops[rank] > after {
                self.mark_dead(rank);
                self.fault(rank, "death", -1, 0, 0.0);
                return Err(RuntimeError::RankDead { op, rank });
            }
        }
        let straggle = self.plan.straggler_comm_seconds(rank);
        if straggle > 0.0 {
            self.fault(rank, "straggler", -1, 0, straggle);
            self.sim.advance(rank, straggle);
        }
        Ok(OpStart {
            virt: self.sim.time(rank),
            gen,
        })
    }

    /// Common op epilogue mirror: latency metric + schema-v3 `comm`
    /// trace event with the rank's post-op Lamport stamp.
    #[allow(clippy::too_many_arguments)] // one flat epilogue, mirroring the thread backend's
    pub(super) fn op_end(
        &mut self,
        rank: usize,
        op: &'static str,
        peer: i64,
        bytes: u64,
        start: &OpStart,
        algorithm: &str,
        rounds: u64,
        gen: u64,
    ) {
        self.events += 1;
        let seconds = self.sim.time(rank) - start.virt;
        let lamport = self.lamport[rank];
        fupermod_core::telemetry::record_comm(op, seconds);
        self.sink.record(&TraceEvent::Comm {
            rank,
            op: op.to_owned(),
            peer,
            bytes,
            seconds,
            algorithm: algorithm.to_owned(),
            rounds,
            lamport,
            gen,
        });
    }

    /// Fail-stop mirror. (The thread backend also completes a barrier
    /// the death unblocks; engine cohorts complete synchronously, so
    /// there is never a half-arrived barrier to finish here.)
    pub(super) fn mark_dead(&mut self, rank: usize) {
        if self.dead[rank] {
            return;
        }
        self.dead[rank] = true;
        self.running[rank] = false;
    }

    /// Completes the current barrier generation: Lamport join over
    /// all clocks (dead ones included), membership agreement, and the
    /// deposited virtual-time charge — one deterministic sequence,
    /// exactly as the thread backend applies them under its lock.
    pub(super) fn complete_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        let join = self
            .lamport
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .wrapping_add(1);
        for (c, &dead) in self.lamport.iter_mut().zip(&self.dead) {
            if !dead {
                *c = join;
            }
        }
        for (agreed, &dead) in self.agreed_alive.iter_mut().zip(&self.dead) {
            *agreed = !dead;
        }
        if let Some(charge) = self.pending_charge.take() {
            match charge {
                ChargeSpec::Rounds(rounds) => self
                    .sim
                    .schedule(&rounds)
                    .expect("schedule hops use valid distinct ranks by construction"),
                ChargeSpec::UniformRing { bytes, rounds } => {
                    self.sim.charge_uniform_ring(bytes, rounds);
                }
            }
        }
    }

    /// Ranks agreed alive at the last completed generation, ascending.
    pub(super) fn agreed_live(&self) -> Vec<usize> {
        self.agreed_alive
            .iter()
            .enumerate()
            .filter_map(|(r, &alive)| alive.then_some(r))
            .collect()
    }

    // ----- fault-plan send machinery ----------------------------------

    /// The raw-send mirror: drop rules with bounded exponential
    /// backoff (each retry re-checks death), then delay rules, then
    /// the Lamport stamp. Deterministic rule-counter order is the
    /// call order, which cohort dispatch fixes (docs/RUNTIME.md §9).
    ///
    /// Does **not** enqueue — collective paths deliver through
    /// [`EventSim::deliver`]; the p2p paths enqueue the returned
    /// stamp/delay as a mailbox envelope.
    pub(super) fn send_eval(
        &mut self,
        op: &'static str,
        src: usize,
        dst: usize,
    ) -> SendFate {
        let mut attempt: u32 = 0;
        loop {
            if self.dead[src] {
                return SendFate::Exhausted(RuntimeError::RankDead { op, rank: src });
            }
            if self.dead[dst] {
                return SendFate::DeadDst;
            }
            let mut dropped: Option<(u32, f64)> = None;
            for (count, rule) in self.drop_counts.iter_mut().zip(&self.plan.drops) {
                if rule.src.is_none_or(|s| s == src) && rule.dst.is_none_or(|d| d == dst) {
                    *count += 1;
                    if count.is_multiple_of(rule.every) {
                        let backoff =
                            rule.backoff_seconds * f64::from(1u32 << attempt.min(16));
                        dropped = Some((rule.max_retries, backoff));
                    }
                    break;
                }
            }
            if let Some((max_retries, backoff)) = dropped {
                self.fault(src, "drop", dst as i64, attempt, 0.0);
                if attempt >= max_retries {
                    return SendFate::Exhausted(RuntimeError::RetriesExhausted {
                        op,
                        src,
                        dst,
                        attempts: attempt + 1,
                    });
                }
                attempt += 1;
                self.fault(src, "retry", dst as i64, attempt, backoff);
                if backoff > 0.0 {
                    self.sim.advance(src, backoff);
                }
                continue;
            }
            let mut delay = 0.0;
            for (count, rule) in self.delay_counts.iter_mut().zip(&self.plan.delays) {
                if rule.src.is_none_or(|s| s == src) && rule.dst.is_none_or(|d| d == dst) {
                    *count += 1;
                    if count.is_multiple_of(rule.every) {
                        delay = rule.seconds;
                    }
                    break;
                }
            }
            if delay > 0.0 {
                self.fault(src, "delay", dst as i64, 0, delay);
            }
            return SendFate::Delivered {
                stamp: self.lamport[src],
                delay,
            };
        }
    }

    /// Receive-side mirror for collective deliveries: Lamport merge
    /// plus the injected-delay charge (the delivery itself is costed
    /// by the deposited schedule, never per message).
    pub(super) fn deliver(&mut self, dst: usize, stamp: u64, delay: f64) {
        self.events += 1;
        let merged = self.lamport[dst].max(stamp.wrapping_add(1));
        self.lamport[dst] = merged;
        if delay > 0.0 {
            self.sim.advance(dst, delay);
        }
    }

    // ----- point-to-point (mailbox) paths -----------------------------

    /// Raw-send mirror that enqueues into the `(src, dst)` mailbox.
    pub(super) fn raw_send_at(
        &mut self,
        op: &'static str,
        src: usize,
        dst: usize,
        bytes: Vec<u8>,
        vready: Option<f64>,
    ) -> Result<(), RuntimeError> {
        match self.send_eval(op, src, dst) {
            SendFate::Delivered { stamp, delay } => {
                self.events += 1;
                self.mail.entry((src, dst)).or_default().push_back(Env {
                    bytes,
                    delay,
                    lamport: stamp,
                    vready,
                });
                Ok(())
            }
            SendFate::DeadDst => Err(RuntimeError::RankDead { op, rank: dst }),
            SendFate::Exhausted(e) => Err(e),
        }
    }

    /// Nonblocking-receive mirror of the thread backend's `try_take`:
    /// FIFO per `(src, dst)` pair, Lamport merge, Hockney charge
    /// (post-time snapshot for `isend`, fresh hop otherwise), and the
    /// injected-delay charge. `Ok(None)` means no mail yet with the
    /// sender still alive.
    pub(super) fn try_take(
        &mut self,
        op: &'static str,
        rank: usize,
        src: usize,
        charge_p2p: bool,
    ) -> Result<Option<Vec<u8>>, RuntimeError> {
        if self.dead[rank] {
            return Err(RuntimeError::RankDead { op, rank });
        }
        if let Some(env) = self.mail.get_mut(&(src, rank)).and_then(VecDeque::pop_front) {
            self.events += 1;
            self.lamport[rank] = self.lamport[rank].max(env.lamport.wrapping_add(1));
            if charge_p2p {
                match env.vready {
                    Some(ready) => self.sim.arrive(rank, ready),
                    None => self.sim.send(src, rank, env.bytes.len() as f64),
                }
            }
            if env.delay > 0.0 {
                self.sim.advance(rank, env.delay);
            }
            return Ok(Some(env.bytes));
        }
        if self.dead[src] {
            return Err(RuntimeError::RankDead { op, rank: src });
        }
        Ok(None)
    }

    /// Whether a receive by `rank` from `src` completes without
    /// blocking: mail is waiting, or a dead endpoint fails it.
    pub(super) fn recv_ready(&self, rank: usize, src: usize) -> bool {
        self.dead[rank]
            || self.dead[src]
            || self.mail.get(&(src, rank)).is_some_and(|q| !q.is_empty())
    }

    /// Blocking-receive mirror. Callers get here only once nothing
    /// else can run (lockstep callers by construction, the
    /// [`super::driver`] after every rank has parked), so a message
    /// that has not been produced by now never will be, and "would
    /// block" resolves immediately to the thread backend's deadline
    /// outcome: the waiter times out and is marked dead.
    pub(super) fn blocking_take(
        &mut self,
        op: &'static str,
        rank: usize,
        src: usize,
        charge_p2p: bool,
    ) -> Result<Vec<u8>, RuntimeError> {
        match self.try_take(op, rank, src, charge_p2p)? {
            Some(bytes) => Ok(bytes),
            None => Err(self.starve(op, rank)),
        }
    }

    /// Mirror of the thread backend's deadline starvation: a rank
    /// blocked on a sender that is alive but no longer sending hits
    /// the plan deadline and fail-stops. The timeout fault event
    /// carries no peer (the waiter only knows its own deadline fired).
    pub(super) fn starve(&mut self, op: &'static str, rank: usize) -> RuntimeError {
        let deadline = self.plan.deadline.unwrap_or(crate::comm::DEFAULT_DEADLINE_SECS);
        self.mark_dead(rank);
        self.fault(rank, "timeout", -1, 0, deadline);
        RuntimeError::Timeout { op, rank, deadline }
    }

    // ----- public point-to-point API ----------------------------------

    /// Blocking typed send mirror.
    ///
    /// # Errors
    ///
    /// As the thread backend: invalid rank, dead endpoint, exhausted
    /// drop retries.
    pub fn send<T: Wire>(&mut self, src: usize, dst: usize, value: &T) -> Result<(), RuntimeError> {
        const OP: &str = "send";
        self.check_rank(OP, dst)?;
        let start = self.op_begin(OP, src)?;
        let bytes = value.to_bytes();
        let n = bytes.len() as u64;
        self.raw_send_at(OP, src, dst, bytes, None)?;
        self.op_end(src, OP, dst as i64, n, &start, "direct", 1, start.gen);
        Ok(())
    }

    /// Blocking typed receive mirror (charges the Hockney hop cost).
    ///
    /// # Errors
    ///
    /// As the thread backend: invalid rank, dead endpoint, decode
    /// failure, or timeout when no matching message exists.
    pub fn recv<T: Wire>(&mut self, rank: usize, src: usize) -> Result<T, RuntimeError> {
        const OP: &str = "recv";
        self.check_rank(OP, src)?;
        let start = self.op_begin(OP, rank)?;
        let bytes = self.blocking_take(OP, rank, src, true)?;
        let value = super::ops::decode_as::<T>(OP, &bytes)?;
        self.op_end(
            rank,
            OP,
            src as i64,
            bytes.len() as u64,
            &start,
            "direct",
            1,
            start.gen,
        );
        Ok(value)
    }

    /// Nonblocking send mirror: posts the message with a post-time
    /// clock snapshot (the receiver is charged `max(own clock, post
    /// snapshot + hop cost)` at completion, so overlapped compute
    /// hides communication exactly as on the thread backend).
    ///
    /// # Errors
    ///
    /// As [`EventSim::send`]. Note the sender's clock advances by the
    /// post cost even when the destination is already dead — the
    /// mirror of the thread backend's post-before-death-check order.
    pub fn isend<T: Wire>(
        &mut self,
        src: usize,
        dst: usize,
        value: &T,
    ) -> Result<SendTicket, RuntimeError> {
        const OP: &str = "isend";
        self.check_rank(OP, dst)?;
        let start = self.op_begin(OP, src)?;
        let bytes = value.to_bytes();
        let n = bytes.len() as u64;
        let ready = self.sim.post_send(src, dst, bytes.len() as f64);
        self.raw_send_at(OP, src, dst, bytes, Some(ready))?;
        Ok(SendTicket {
            rank: src,
            dst,
            bytes_len: n,
            start,
        })
    }

    /// Completes a posted send (emits the `isend` trace event).
    pub fn isend_wait(&mut self, ticket: SendTicket) {
        self.op_end(
            ticket.rank,
            "isend",
            ticket.dst as i64,
            ticket.bytes_len,
            &ticket.start,
            "direct",
            1,
            ticket.start.gen,
        );
    }

    /// Posts a nonblocking receive (mirror: posting never fails on a
    /// dead sender — death surfaces at the wait).
    ///
    /// # Errors
    ///
    /// Invalid rank, or the receiver itself is dead.
    pub fn irecv_post(&mut self, rank: usize, src: usize) -> Result<RecvTicket, RuntimeError> {
        const OP: &str = "irecv";
        self.check_rank(OP, src)?;
        let start = self.op_begin(OP, rank)?;
        Ok(RecvTicket { rank, src, start })
    }

    /// Completes a posted receive.
    ///
    /// # Errors
    ///
    /// Dead sender with no pending message, decode failure, or
    /// timeout.
    pub fn irecv_wait<T: Wire>(&mut self, ticket: RecvTicket) -> Result<T, RuntimeError> {
        const OP: &str = "irecv";
        let bytes = self.blocking_take(OP, ticket.rank, ticket.src, true)?;
        let value = super::ops::decode_as::<T>(OP, &bytes)?;
        self.op_end(
            ticket.rank,
            OP,
            ticket.src as i64,
            bytes.len() as u64,
            &ticket.start,
            "direct",
            1,
            ticket.start.gen,
        );
        Ok(value)
    }

    // ----- cohort dispatch --------------------------------------------

    /// Key for clock-ordered dispatch: finite non-negative `f64`
    /// clocks compare identically to their bit patterns, and the rank
    /// index breaks ties deterministically.
    pub(super) fn clock_key(&self, rank: usize) -> (u64, usize) {
        (self.sim.time(rank).to_bits(), rank)
    }

    /// Dispatches `op_begin` for every running rank in `(clock,
    /// rank)` heap order. Returns the cohort (ranks that entered the
    /// collective, in dispatch order, with their start stamps) and
    /// the ranks whose begin failed (scheduled death).
    pub(super) fn begin_cohort(
        &mut self,
        op: &'static str,
    ) -> (Cohort, Vec<(usize, RuntimeError)>) {
        debug_assert!(self.heap.is_empty());
        for rank in 0..self.size {
            if self.running[rank] {
                self.heap.push(Reverse(self.clock_key(rank)));
            }
        }
        let mut cohort = Vec::new();
        let mut failed = Vec::new();
        while let Some(Reverse((_, rank))) = self.heap.pop() {
            match self.op_begin(op, rank) {
                Ok(start) => cohort.push((rank, start)),
                Err(e) => failed.push((rank, e)),
            }
        }
        (cohort, failed)
    }

    /// Pops the cohort in final `(clock, rank)` order for epilogue
    /// dispatch.
    pub(super) fn cohort_end_order(&mut self, cohort: &[(usize, OpStart)]) -> Vec<usize> {
        debug_assert!(self.heap.is_empty());
        for &(rank, _) in cohort {
            self.heap.push(Reverse(self.clock_key(rank)));
        }
        let mut order = Vec::with_capacity(cohort.len());
        while let Some(Reverse((_, rank))) = self.heap.pop() {
            order.push(rank);
        }
        order
    }
}
