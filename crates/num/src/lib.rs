#![warn(missing_docs)]

//! Numerical substrate for the FuPerMod reproduction.
//!
//! This crate provides the mathematical machinery the framework is built
//! on, implemented from scratch so the workspace has no numerical
//! dependencies beyond the standard library:
//!
//! * [`stats`] — summary statistics and Student-t confidence intervals,
//!   used by the benchmarking machinery to decide when a measurement is
//!   statistically reliable.
//! * [`interp`] — piecewise-linear and Akima-spline interpolation of
//!   empirical time functions, the two interpolation methods the paper's
//!   functional performance models (FPMs) are built on.
//! * [`solve`] — scalar root finding for the geometrical
//!   data-partitioning algorithm, and a multidimensional Newton method
//!   with an O(n) step for the numerical algorithm's equal-time system;
//!   plus the tridiagonal solve behind the cubic spline.
//! * [`apportion`] — largest-remainder integer apportionment, used to
//!   round continuous partitions to whole computation units without
//!   losing or inventing work.
//!
//! # Examples
//!
//! ```
//! use fupermod_num::interp::{AkimaSpline, Interpolation};
//!
//! # fn main() -> Result<(), fupermod_num::NumError> {
//! let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
//! let ys = [0.0, 1.0, 4.0, 9.0, 16.0];
//! let spline = AkimaSpline::new(&xs, &ys)?;
//! let mid = spline.value(2.5);
//! assert!((mid - 6.25).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

pub mod apportion;
pub mod interp;
pub mod solve;
pub mod stats;

mod error;

pub use error::NumError;
