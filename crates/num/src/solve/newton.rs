use super::lin::solve_diag_rank_one;
use crate::error::invalid;
use crate::NumError;

/// Options for [`newton_system`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Convergence threshold on the residual max-norm.
    pub f_tol: f64,
    /// Convergence threshold on the step max-norm.
    pub x_tol: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Smallest admissible backtracking factor before the step is
    /// declared failed.
    pub min_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            f_tol: 1e-10,
            x_tol: 1e-12,
            max_iter: 100,
            min_step: 1e-10,
        }
    }
}

/// Diagnostics returned by a successful [`newton_system`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonReport {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually used.
    pub iterations: usize,
    /// Final residual max-norm.
    pub residual: f64,
}

fn max_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Solves the square non-linear system `F(x) = 0` by damped Newton
/// iteration with a backtracking line search on `‖F‖∞`, for systems
/// whose Jacobian is a diagonal plus a multiple of the all-ones matrix,
/// `J(x) = diag(a(x)) + c(x)·11ᵀ`.
///
/// * `f(x, out)` writes the residual vector into `out`.
/// * `jac(x, a)` writes the diagonal `a` into `a` and returns `c`.
///
/// This is the engine behind the paper's "numerical algorithm" for
/// data partitioning \[15\]: the equal-time conditions
/// `tᵢ(xᵢ) − tₚ(D − Σx) = 0` have exactly this Jacobian, with
/// `aᵢ = tᵢ′(xᵢ)` and `c = tₚ′(D − Σx)`, so each Newton step is the
/// O(n) [`solve_diag_rank_one`] and an iteration costs O(n) time and
/// memory.
///
/// # Errors
///
/// * [`NumError::InvalidInput`] — empty starting point or non-finite
///   residual at the start.
/// * [`NumError::SingularMatrix`] — Jacobian singular at an iterate.
/// * [`NumError::NoConvergence`] — iteration budget exhausted or the
///   line search stalled.
pub fn newton_system(
    mut f: impl FnMut(&[f64], &mut [f64]),
    mut jac: impl FnMut(&[f64], &mut [f64]) -> f64,
    x0: &[f64],
    opts: NewtonOptions,
) -> Result<NewtonReport, NumError> {
    let n = x0.len();
    if n == 0 {
        return Err(invalid("newton_system needs at least one variable"));
    }

    let mut x = x0.to_vec();
    let mut fx = vec![0.0; n];
    let mut diag = vec![0.0; n];
    let mut step = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut f_trial = vec![0.0; n];

    f(&x, &mut fx);
    if fx.iter().any(|v| !v.is_finite()) {
        return Err(invalid("residual is not finite at the starting point"));
    }
    let mut fnorm = max_norm(&fx);

    for iter in 0..opts.max_iter {
        if fnorm <= opts.f_tol {
            return Ok(NewtonReport {
                x,
                iterations: iter,
                residual: fnorm,
            });
        }

        let c = jac(&x, &mut diag);
        // Newton step: J * step = -F.
        for (s, v) in step.iter_mut().zip(&fx) {
            *s = -v;
        }
        solve_diag_rank_one(&diag, c, &mut step)?;

        // Backtracking line search: halve until the residual norm drops.
        let mut lambda = 1.0;
        loop {
            for i in 0..n {
                trial[i] = x[i] + lambda * step[i];
            }
            f(&trial, &mut f_trial);
            let trial_norm = if f_trial.iter().all(|v| v.is_finite()) {
                max_norm(&f_trial)
            } else {
                f64::INFINITY
            };
            if trial_norm < fnorm {
                x.copy_from_slice(&trial);
                fx.copy_from_slice(&f_trial);
                fnorm = trial_norm;
                break;
            }
            lambda *= 0.5;
            if lambda < opts.min_step {
                return Err(NumError::NoConvergence {
                    method: "newton_system (line search stalled)",
                    residual: fnorm,
                });
            }
        }

        if lambda * max_norm(&step) <= opts.x_tol && fnorm <= opts.f_tol.max(1e-8) {
            return Ok(NewtonReport {
                x,
                iterations: iter + 1,
                residual: fnorm,
            });
        }
    }

    if fnorm <= opts.f_tol {
        return Ok(NewtonReport {
            x,
            iterations: opts.max_iter,
            residual: fnorm,
        });
    }
    Err(NumError::NoConvergence {
        method: "newton_system",
        residual: fnorm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_square_root() {
        let report = newton_system(
            |x, out| out[0] = x[0] * x[0] - 2.0,
            |x, a| {
                a[0] = 2.0 * x[0];
                0.0
            },
            &[1.0],
            NewtonOptions::default(),
        )
        .unwrap();
        assert!((report.x[0] - 2.0_f64.sqrt()).abs() < 1e-9);
        assert!(report.iterations < 10);
    }

    #[test]
    fn equal_time_system() {
        // t₁(x) = x², t₂(x) = 2x, t₃(y) = 2y with y = 6 − x₁ − x₂:
        // J = diag(2x₁, 2) + 2·11ᵀ. The root is x₁ = x₂ = y = 2, where
        // every time is 4.
        let report = newton_system(
            |x, out| {
                let y = 6.0 - x[0] - x[1];
                out[0] = x[0] * x[0] - 2.0 * y;
                out[1] = 2.0 * x[1] - 2.0 * y;
            },
            |x, a| {
                a[0] = 2.0 * x[0];
                a[1] = 2.0;
                2.0
            },
            &[1.0, 1.0],
            NewtonOptions::default(),
        )
        .unwrap();
        assert!((report.x[0] - 2.0).abs() < 1e-9, "{:?}", report.x);
        assert!((report.x[1] - 2.0).abs() < 1e-9, "{:?}", report.x);
    }

    #[test]
    fn detects_singular_jacobian() {
        let err = newton_system(
            |_, out| out[0] = 1.0,
            |_, a| {
                a[0] = 0.0;
                0.0
            },
            &[0.0],
            NewtonOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, NumError::SingularMatrix);
    }

    #[test]
    fn reports_no_convergence_when_rootless() {
        // f(x) = x^2 + 1 has no real root; line search must stall.
        let err = newton_system(
            |x, out| out[0] = x[0] * x[0] + 1.0,
            |x, a| {
                a[0] = 2.0 * x[0];
                0.0
            },
            &[3.0],
            NewtonOptions {
                max_iter: 50,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, NumError::NoConvergence { .. }));
    }

    #[test]
    fn already_converged_start_returns_immediately() {
        let report = newton_system(
            |x, out| out[0] = x[0],
            |_, a| {
                a[0] = 1.0;
                0.0
            },
            &[0.0],
            NewtonOptions::default(),
        )
        .unwrap();
        assert_eq!(report.iterations, 0);
        assert_eq!(report.x, vec![0.0]);
    }
}
