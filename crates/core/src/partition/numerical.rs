use fupermod_num::solve::{newton_system, NewtonOptions};

use super::{check_inputs, finalize, Distribution, Partitioner};
use crate::model::Model;
use crate::CoreError;

/// The numerical data-partitioning algorithm of Rychkov et al. \[15\]:
/// the optimal distribution is the solution of the non-linear system
///
/// ```text
/// tᵢ(dᵢ) = tₚ(dₚ),  i = 1..p-1        (equal finish times)
/// d₁ + … + dₚ = D                      (conservation)
/// ```
///
/// solved with a damped multidimensional Newton method over the `p − 1`
/// free shares (`dₚ = D − Σdᵢ` is eliminated). The Jacobian comes from
/// the models' analytic time derivatives — this is why the algorithm is
/// paired with the smooth [`AkimaModel`](crate::model::AkimaModel),
/// whose spline has a continuous first derivative; any [`Model`] works
/// as long as its derivative is sane.
///
/// Row `i` of the residual depends on its own share and, through `dₚ`,
/// on their sum, so the Jacobian is `diag(tᵢ′(dᵢ)) + tₚ′(dₚ)·11ᵀ`. Each
/// Newton step solves it with
/// [`solve_diag_rank_one`](fupermod_num::solve::solve_diag_rank_one),
/// a Sherman–Morrison solve that also handles one vanishing `tᵢ′` (a
/// flat segment of a [`PiecewiseModel`](crate::model::PiecewiseModel)).
/// An iteration therefore costs O(p) time and memory plus its model
/// evaluations.
///
/// If Newton fails (e.g. on wildly non-monotone spline segments, or
/// stalled on the kinks of a piecewise model), a multiplicative
/// fixed-point iteration — repeatedly scaling each share by
/// `(mean time / own time)^γ` and renormalising — is used as a
/// fallback; it is slower but needs only time evaluations, O(p) per
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericalPartitioner {
    /// Newton solver options.
    pub newton: NewtonOptions,
    /// Fallback relaxation exponent `γ` in `(0, 1]`.
    pub fallback_gamma: f64,
    /// Fallback iteration cap.
    pub fallback_iters: usize,
}

impl Default for NumericalPartitioner {
    fn default() -> Self {
        Self {
            newton: NewtonOptions {
                f_tol: 1e-9,
                x_tol: 1e-10,
                max_iter: 200,
                min_step: 1e-12,
            },
            fallback_gamma: 0.5,
            fallback_iters: 500,
        }
    }
}

/// Writes the diagonal `tᵢ′(xᵢ)` of the equal-time Jacobian at the free
/// shares `x` into `diag` and returns its rank-one coefficient
/// `tₚ′(D − Σx)`: `∂/∂xⱼ [tᵢ(xᵢ) − tₚ(D − Σx)] = δᵢⱼ tᵢ′(xᵢ) + tₚ′`.
fn jacobian(models: &[&dyn Model], total: f64, x: &[f64], diag: &mut [f64]) -> f64 {
    let deriv = |m: &dyn Model, x: f64| m.time_derivative(x.max(0.0)).unwrap_or(1.0);
    for ((a, &xi), m) in diag.iter_mut().zip(x).zip(models) {
        *a = deriv(*m, xi);
    }
    let last = total - x.iter().sum::<f64>();
    deriv(models[models.len() - 1], last)
}

impl NumericalPartitioner {
    fn solve_newton(&self, total: f64, models: &[&dyn Model]) -> Result<Vec<f64>, CoreError> {
        let p = models.len();
        let n = p - 1; // free variables; d_p is eliminated

        let time = |i: usize, x: f64| models[i].time(x.max(0.0)).unwrap_or(f64::INFINITY);

        let residual = |x: &[f64], out: &mut [f64]| {
            let last = total - x.iter().sum::<f64>();
            let t_last = time(p - 1, last);
            for i in 0..n {
                out[i] = time(i, x[i]) - t_last;
            }
        };

        // Initial guess: proportional to speeds at the even share.
        let probe = (total / p as f64).max(1.0);
        let speeds: Vec<f64> = models
            .iter()
            .map(|m| m.speed(probe).unwrap_or(1.0).max(1e-12))
            .collect();
        let speed_sum: f64 = speeds.iter().sum();
        let x0: Vec<f64> = speeds[..n]
            .iter()
            .map(|s| s / speed_sum * total)
            .collect();

        let report = newton_system(
            residual,
            |x, diag| jacobian(models, total, x, diag),
            &x0,
            self.newton,
        )
        .map_err(CoreError::from)?;
        let mut d = report.x;
        d.push(total - d.iter().sum::<f64>());
        if d.iter().any(|v| !v.is_finite() || *v < -0.01 * total) {
            return Err(CoreError::Partition(format!(
                "Newton produced an invalid distribution {d:?}"
            )));
        }
        Ok(d.into_iter().map(|v| v.max(0.0)).collect())
    }

    fn solve_fallback(&self, total: f64, models: &[&dyn Model]) -> Result<Vec<f64>, CoreError> {
        let p = models.len();
        let mut d = vec![total / p as f64; p];
        let mut times = vec![0.0; p];
        for _ in 0..self.fallback_iters {
            let (mut max, mut min, mut time_sum) = (0.0_f64, f64::INFINITY, 0.0);
            for ((t, x), m) in times.iter_mut().zip(&d).zip(models) {
                *t = m.time(x.max(1e-9)).unwrap_or(f64::INFINITY);
                max = max.max(*t);
                min = min.min(*t);
                time_sum += *t;
            }
            if max <= 0.0 || !max.is_finite() {
                return Err(CoreError::Partition(
                    "fallback iteration saw invalid times".to_owned(),
                ));
            }
            if (max - min) / max < 1e-10 {
                break;
            }
            let mean = time_sum / p as f64;
            let mut sum = 0.0;
            for (x, t) in d.iter_mut().zip(&times) {
                *x *= (mean / t).powf(self.fallback_gamma);
                sum += *x;
            }
            for x in &mut d {
                *x *= total / sum;
            }
        }
        Ok(d)
    }
}

impl Partitioner for NumericalPartitioner {
    fn partition(&self, total: u64, models: &[&dyn Model]) -> Result<Distribution, CoreError> {
        check_inputs(models)?;
        if total == 0 || models.len() == 1 {
            let mut continuous = vec![0.0; models.len()];
            continuous[0] = total as f64;
            return finalize(total, &continuous, models);
        }
        let t = total as f64;
        let continuous = match self.solve_newton(t, models) {
            Ok(d) => d,
            Err(_) => self.solve_fallback(t, models)?,
        };
        finalize(total, &continuous, models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AkimaModel, Model, PiecewiseModel};
    use crate::Point;
    use fupermod_num::solve::solve_diag_rank_one;

    fn akima(data: &[(u64, f64)]) -> AkimaModel {
        let mut m = AkimaModel::new();
        for &(d, t) in data {
            m.update(Point::single(d, t)).unwrap();
        }
        m
    }

    #[test]
    fn proportional_for_linear_time_functions() {
        let m1 = akima(&[(100, 1.0), (500, 5.0), (1000, 10.0)]); // 100 u/s
        let m2 = akima(&[(100, 4.0), (500, 20.0), (1000, 40.0)]); // 25 u/s
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let dist = NumericalPartitioner::default()
            .partition(1000, &models)
            .unwrap();
        assert_eq!(dist.sizes(), vec![800, 200]);
    }

    #[test]
    fn equalises_times_on_smooth_nonlinear_models() {
        // Superlinear time (speed decays with size) vs linear.
        let m1 = akima(&[(100, 1.0), (400, 8.0), (800, 40.0), (1600, 200.0)]);
        let m2 = akima(&[(100, 3.0), (800, 24.0), (1600, 48.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let dist = NumericalPartitioner::default()
            .partition(1600, &models)
            .unwrap();
        let t1 = m1.time(dist.parts()[0].d as f64).unwrap();
        let t2 = m2.time(dist.parts()[1].d as f64).unwrap();
        assert!(
            (t1 - t2).abs() / t1.max(t2) < 0.02,
            "not equalised: {t1} vs {t2}"
        );
    }

    #[test]
    fn three_process_system_balances() {
        let m1 = akima(&[(100, 1.0), (1000, 11.0), (4000, 60.0)]);
        let m2 = akima(&[(100, 2.0), (1000, 19.0), (4000, 85.0)]);
        let m3 = akima(&[(100, 5.0), (1000, 52.0), (4000, 220.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2, &m3];
        let dist = NumericalPartitioner::default()
            .partition(5000, &models)
            .unwrap();
        assert_eq!(dist.total_assigned(), 5000);
        let times: Vec<f64> = dist
            .parts()
            .iter()
            .zip(&models)
            .map(|(p, m)| m.time(p.d as f64).unwrap())
            .collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - min) / max < 0.05, "times: {times:?}");
    }

    #[test]
    fn agrees_with_geometric_on_well_behaved_models() {
        use crate::partition::GeometricPartitioner;
        let m1 = akima(&[(100, 1.0), (500, 6.0), (2000, 30.0)]);
        let m2 = akima(&[(100, 2.5), (500, 14.0), (2000, 70.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let num = NumericalPartitioner::default()
            .partition(2000, &models)
            .unwrap();
        let geo = GeometricPartitioner::default()
            .partition(2000, &models)
            .unwrap();
        let diff = (num.parts()[0].d as i64 - geo.parts()[0].d as i64).abs();
        assert!(diff < 60, "numerical {:?} vs geometric {:?}", num.sizes(), geo.sizes());
    }

    #[test]
    fn fallback_solves_when_newton_is_disabled() {
        let m1 = akima(&[(100, 1.0), (1000, 10.0)]);
        let m2 = akima(&[(100, 2.0), (1000, 20.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let p = NumericalPartitioner {
            newton: NewtonOptions {
                max_iter: 0, // force fallback
                ..NewtonOptions::default()
            },
            ..NumericalPartitioner::default()
        };
        let dist = p.partition(900, &models).unwrap();
        assert_eq!(dist.sizes(), vec![600, 300]);
    }

    #[test]
    fn single_process_short_circuits() {
        let m = akima(&[(10, 1.0)]);
        let models: Vec<&dyn Model> = vec![&m];
        let dist = NumericalPartitioner::default()
            .partition(42, &models)
            .unwrap();
        assert_eq!(dist.sizes(), vec![42]);
    }

    #[test]
    fn handles_extreme_speed_ratio() {
        let fast = akima(&[(10_000, 1.0), (100_000, 10.0)]);
        let slow = akima(&[(10, 1.0), (100, 10.0)]);
        let models: Vec<&dyn Model> = vec![&fast, &slow];
        let dist = NumericalPartitioner::default()
            .partition(100_000, &models)
            .unwrap();
        assert_eq!(dist.total_assigned(), 100_000);
        assert!(dist.parts()[1].d < 200);
    }

    #[test]
    fn newton_step_solves_through_a_flat_time_segment() {
        // Time does not grow from 100 to 200 units: the monotone-time
        // cap makes that segment exactly flat, so t′ = 0 inside it.
        let mut flat = PiecewiseModel::new();
        for (d, t) in [(100, 1.0), (200, 1.0), (400, 3.0)] {
            flat.update(Point::single(d, t)).unwrap();
        }
        assert_eq!(flat.time_derivative(150.0), Some(0.0));
        let m2 = akima(&[(100, 2.0), (1000, 19.0), (4000, 85.0)]);
        let m3 = akima(&[(100, 5.0), (1000, 52.0), (4000, 220.0)]);
        let models: Vec<&dyn Model> = vec![&flat, &m2, &m3];

        let x = [150.0, 400.0];
        let mut diag = [f64::NAN; 2];
        let c = jacobian(&models, 900.0, &x, &mut diag);
        assert_eq!(diag[0], 0.0);
        assert_eq!(c, m3.time_derivative(350.0).unwrap());

        let rhs = [0.25, -0.5];
        let mut step = rhs;
        solve_diag_rank_one(&diag, c, &mut step).unwrap();
        let sum = step[0] + step[1];
        for i in 0..2 {
            let row = diag[i] * step[i] + c * sum;
            assert!((row - rhs[i]).abs() < 1e-12, "row {i}: {row} vs {}", rhs[i]);
        }
    }

    /// The fallback as first written: a fresh `times` vector and four
    /// passes per iteration. The reference for the fused loop.
    fn reference_fallback(
        part: &NumericalPartitioner,
        total: f64,
        models: &[&dyn Model],
    ) -> Vec<f64> {
        let p = models.len();
        let mut d = vec![total / p as f64; p];
        for _ in 0..part.fallback_iters {
            let times: Vec<f64> = d
                .iter()
                .zip(models)
                .map(|(x, m)| m.time(x.max(1e-9)).unwrap_or(f64::INFINITY))
                .collect();
            let max = times.iter().fold(0.0_f64, |m, t| m.max(*t));
            let min = times.iter().fold(f64::INFINITY, |m, t| m.min(*t));
            assert!(max > 0.0 && max.is_finite());
            if (max - min) / max < 1e-10 {
                break;
            }
            let mean = times.iter().sum::<f64>() / p as f64;
            for (x, t) in d.iter_mut().zip(&times) {
                *x *= (mean / t).powf(part.fallback_gamma);
            }
            let sum: f64 = d.iter().sum();
            for x in &mut d {
                *x *= total / sum;
            }
        }
        d
    }

    #[test]
    fn fallback_is_bit_identical_to_the_four_pass_loop() {
        let m1 = akima(&[(100, 1.0), (1000, 11.0), (4000, 60.0)]);
        let m2 = akima(&[(100, 2.0), (1000, 19.0), (4000, 85.0)]);
        let m3 = akima(&[(100, 5.0), (400, 9.0), (1000, 52.0), (4000, 220.0)]);
        let mut kinked = PiecewiseModel::new();
        for (d, t) in [(100, 1.0), (200, 1.0), (400, 3.0), (3000, 40.0)] {
            kinked.update(Point::single(d, t)).unwrap();
        }
        let models: Vec<&dyn Model> = vec![&m1, &m2, &m3, &kinked];
        let part = NumericalPartitioner::default();
        for total in [10.0, 900.0, 5000.0, 12_345.0] {
            let fused = part.solve_fallback(total, &models).unwrap();
            let reference = reference_fallback(&part, total, &models);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&reference), "total {total}");
        }
    }
}
