//! The discrete-event simulation core: `10⁴`–`10⁶` ranks on one host.
//!
//! The thread-backed sim ([`crate::RuntimeConfig::sim`]) runs one OS
//! thread per rank, which caps practical scale near `p = 64`. This
//! module replaces the threads with one single-threaded driver
//! (`driver`) that polls each rank's program — the same `async fn`
//! the thread backends run — as a future, and parks it at collectives
//! and receives. Every rank's engine state is a few vector slots
//! (virtual clock, Lamport clock, op counter, liveness), collectives
//! execute as *cohorts* against the exact same Hockney + per-round
//! schedule charges ([`fupermod_platform::comm::SimComm`]), and the
//! only per-message state is the live mailbox entries — memory is
//! `O(live events + per-rank state)` instead of `O(threads)`.
//!
//! # Contract
//!
//! [`EventSim`] mirrors the thread backend's op lifecycle instruction
//! for instruction: `op_begin` (op count, Lamport tick, scheduled
//! death, straggler latency), the fault-plan send rules (drop counts,
//! bounded exponential backoff, delivery delays), the Lamport merge at
//! delivery, the barrier-generation join and membership agreement, and
//! the deposited collective schedule charges. On fault-free plans and
//! under fail-stop death the virtual clocks it produces are
//! **bit-identical** to the thread-backed sim (pinned by the
//! `event_parity` integration tests at `p ∈ {1, 4, 16, 64}` across
//! `hub`/`ring`/`tree`/`auto`); at large `p` closed-form fast paths
//! (uniform-ring charge, `O(q log q)` butterfly schedule, subtree-sum
//! tree accounting) keep a `p = 100k` collective in milliseconds.
//! Event ordering, tie-breaks, determinism guarantees and the memory
//! model are documented in `docs/RUNTIME.md` §9.
//!
//! Select the engine with [`RuntimeConfig::with_engine`]
//! (CLI: `--sim-engine thread|event`).
//!
//! [`RuntimeConfig::with_engine`]: crate::RuntimeConfig::with_engine

pub(crate) mod driver;
mod engine;
mod ops;

pub use engine::{EventSim, RankResults, RecvTicket, SendTicket};

/// Which simulation engine executes a sim-backed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// One OS thread per rank (the original backend): real
    /// concurrency, practical up to a few hundred ranks.
    #[default]
    Thread,
    /// Single-threaded discrete-event interpreter: `10⁴`–`10⁶` ranks,
    /// bit-identical virtual time at small `p`.
    Event,
}

impl SimEngine {
    /// Parses a CLI engine name.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "thread" => Ok(SimEngine::Thread),
            "event" => Ok(SimEngine::Event),
            other => Err(format!(
                "unknown sim engine '{other}' (expected thread|event)"
            )),
        }
    }

    /// The CLI name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::Thread => "thread",
            SimEngine::Event => "event",
        }
    }
}
