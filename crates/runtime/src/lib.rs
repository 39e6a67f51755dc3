//! `fupermod-runtime`: a rank-based message-passing runtime for the
//! FuPerMod reproduction.
//!
//! The paper's tools (`fupermod_dynamic`, the builders, the data
//! partitioning API) assume an MPI job: `p` ranks, collectives, and a
//! root that owns the models. This crate supplies that substrate
//! without an MPI installation, in the spirit of `rsmpi`'s typed
//! bindings:
//!
//! * [`Communicator`] — rank/size, typed point-to-point
//!   ([`Wire`]-encoded payloads), `barrier`, and the collectives the
//!   paper's loop needs (`bcast`, `scatterv`, `gatherv`,
//!   `allgatherv`, `allreduce`), each carried by a configurable
//!   schedule ([`AlgorithmPolicy`]: `hub | ring | tree | auto`) —
//!   binomial trees for rooted operations, a pipelined ring and a
//!   recursive-doubling butterfly for rootless ones, all bitwise
//!   identical to the compatibility hub on fault-free plans (see
//!   [`collective`]).
//! * Three backends behind one API:
//!   * a **threaded** backend ([`RuntimeConfig::thread`]) — every
//!     rank is an OS thread in this process, wall-clock timing
//!     (generalises the old `fupermod_platform::ThreadComm`, since
//!     removed);
//!   * a **simulated** backend ([`RuntimeConfig::sim`]) — the same
//!     threads, but every operation charges the Hockney virtual
//!     clocks of the existing `fupermod_platform::SimComm`,
//!     deterministically;
//!   * a **TCP** backend ([`connect`] / [`TcpConfig`]) — one rank
//!     per OS process, peers linked by length-prefixed checksummed
//!     frames over sockets, so the same programs run across real
//!     processes and hosts (see `docs/RUNTIME.md` §10).
//! * A **fault layer** ([`FaultPlan`]): message delays, drops with
//!   bounded retry and exponential backoff, stragglers, and fail-stop
//!   rank death, all surfacing as typed [`RuntimeError`]s and
//!   schema-v2 `comm`/`fault` trace events instead of hangs.
//! * A **distributed executor**
//!   ([`run_to_balance_distributed`]) that re-implements the serial
//!   `DynamicContext::run_to_balance` as one SPMD rank program, an
//!   `async fn` that every backend and the event engine run unchanged
//!   — bit-identical on a fault-free plan, gracefully degrading (dead
//!   ranks rebalanced away) under an adversarial one.
//!
//! See `docs/RUNTIME.md` for a guided tour and the fault-plan JSON
//! schema.

#![warn(missing_docs)]

pub mod collective;
pub mod comm;
pub mod error;
pub mod executor;
pub mod fault;
pub mod net;
pub mod sim;
pub mod wire;

pub use collective::{Algorithm, AlgorithmPolicy};
pub use comm::request::{
    wait_all, AllgathervRequest, BcastRequest, Progress, RecvRequest, Request, SendRequest,
};
pub use comm::{
    run_ranks, Communicator, ReduceOp, RuntimeConfig, RuntimeHandle, ThreadedComm,
    DEFAULT_DEADLINE_SECS,
};
pub use error::RuntimeError;
pub use executor::{
    run_balance_rank, run_to_balance_distributed, run_to_balance_distributed_with,
    BalanceOutcome, OverlapMode,
};
pub use fault::{DeathRule, DelayRule, DropRule, FaultPlan, StragglerRule};
pub use net::{connect, connect_with_listener, TcpComm, TcpConfig};
pub use sim::{EventSim, SimEngine};
pub use wire::Wire;
