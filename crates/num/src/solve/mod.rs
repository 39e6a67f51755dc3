//! Root finding and linear algebra for the partitioning algorithms.
//!
//! * [`bisect`] / [`brent`] — scalar roots. Bisection drives the
//!   geometrical partitioning algorithm (bisection of lines through the
//!   origin).
//! * [`newton_system`] — damped multidimensional Newton with
//!   backtracking line search for systems whose Jacobian is a diagonal
//!   plus a multiple of the all-ones matrix: the equal-time system of
//!   the Akima-FPM numerical partitioner (the paper's
//!   "multidimensional solvers" \[15\]).
//! * [`solve_diag_rank_one`] — the O(n) linear solve of that Jacobian
//!   for the Newton steps.
//! * [`solve_tridiagonal`] — the Thomas algorithm, for the cubic
//!   spline.

mod lin;
mod newton;
mod scalar;

pub use lin::{solve_diag_rank_one, solve_tridiagonal};
pub use newton::{newton_system, NewtonOptions, NewtonReport};
pub use scalar::{bisect, brent, RootOptions};
