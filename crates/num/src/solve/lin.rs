use crate::error::invalid;
use crate::NumError;

/// Solves `(diag(a) + c·11ᵀ) x = b` in place in O(n) time and no extra
/// memory — a diagonal matrix plus `c` times the all-ones matrix, the
/// shape of the equal-time Jacobian of the numerical partitioner.
///
/// This is the Sherman–Morrison solve written so that it never divides
/// by a diagonal entry that may vanish: the row `k` with the smallest
/// `|aₖ|` is subtracted from every other row, which leaves
/// `aᵢxᵢ − aₖxₖ = bᵢ − bₖ`. Substituting `xᵢ = (bᵢ − bₖ + aₖxₖ) / aᵢ`
/// into row `k` gives the scalar equation
///
/// ```text
/// (aₖ + c·(1 + aₖ·Σᵢ≠ₖ 1/aᵢ)) · xₖ = bₖ − c·Σᵢ≠ₖ (bᵢ − bₖ)/aᵢ
/// ```
///
/// whose coefficient is `aₖ` times the Sherman–Morrison denominator
/// `1 + c·Σ 1/aᵢ`. One zero (or tiny) diagonal entry is therefore
/// solved exactly, as Gaussian elimination with pivoting would.
///
/// `b` holds the right-hand side on entry and the solution on success.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on length mismatch or an empty
/// system, and [`NumError::SingularMatrix`] only when the matrix is
/// singular: two zero diagonal entries, or a coefficient of `xₖ` that
/// underflows working precision.
///
/// # Examples
///
/// ```
/// use fupermod_num::solve::solve_diag_rank_one;
///
/// # fn main() -> Result<(), fupermod_num::NumError> {
/// // [[1, 1], [1, 3]] x = [3, 5], i.e. diag(0, 2) + 1·11ᵀ.
/// let mut b = vec![3.0, 5.0];
/// solve_diag_rank_one(&[0.0, 2.0], 1.0, &mut b)?;
/// assert!((b[0] - 2.0).abs() < 1e-12);
/// assert!((b[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve_diag_rank_one(a: &[f64], c: f64, b: &mut [f64]) -> Result<(), NumError> {
    let n = b.len();
    if a.len() != n || n == 0 {
        return Err(invalid(format!(
            "diagonal has {} entries, expected {n} (at least one)",
            a.len()
        )));
    }
    let k = (1..n).fold(0, |k, i| if a[i].abs() < a[k].abs() { i } else { k });
    let (ak, bk) = (a[k], b[k]);

    let mut inv_sum = 0.0;
    let mut weighted = 0.0;
    for (i, (&ai, &bi)) in a.iter().zip(b.iter()).enumerate() {
        if i == k {
            continue;
        }
        if ai == 0.0 {
            // Two zero diagonal entries: those two rows are equal.
            return Err(NumError::SingularMatrix);
        }
        inv_sum += 1.0 / ai;
        weighted += (bi - bk) / ai;
    }
    let coeff = ak + c * (1.0 + ak * inv_sum);
    if coeff.is_nan() || coeff.abs() < 1e-300 {
        return Err(NumError::SingularMatrix);
    }
    let xk = (bk - c * weighted) / coeff;
    for (i, (&ai, bi)) in a.iter().zip(b.iter_mut()).enumerate() {
        *bi = if i == k {
            xk
        } else {
            (*bi - bk + ak * xk) / ai
        };
    }
    Ok(())
}

/// Solves a tridiagonal system with the Thomas algorithm.
///
/// `sub` is the sub-diagonal (first entry unused conceptually but must
/// be present for rows ≥ 1; `sub[0]` is ignored), `diag` the main
/// diagonal, `sup` the super-diagonal (`sup[n-1]` ignored), `rhs` the
/// right-hand side. All four slices have the same length `n`.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on length mismatch and
/// [`NumError::SingularMatrix`] if a pivot vanishes (the algorithm does
/// not pivot; diagonally dominant systems — like spline systems — are
/// safe).
pub fn solve_tridiagonal(
    sub: &[f64],
    diag: &[f64],
    sup: &[f64],
    rhs: &[f64],
) -> Result<Vec<f64>, NumError> {
    let n = diag.len();
    if sub.len() != n || sup.len() != n || rhs.len() != n {
        return Err(invalid("tridiagonal bands must share one length"));
    }
    if n == 0 {
        return Ok(Vec::new());
    }

    let mut c = vec![0.0; n];
    let mut d = vec![0.0; n];
    if diag[0].abs() < 1e-300 {
        return Err(NumError::SingularMatrix);
    }
    c[0] = sup[0] / diag[0];
    d[0] = rhs[0] / diag[0];
    for i in 1..n {
        let denom = diag[i] - sub[i] * c[i - 1];
        if denom.abs() < 1e-300 {
            return Err(NumError::SingularMatrix);
        }
        c[i] = sup[i] / denom;
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / denom;
    }
    for i in (0..n - 1).rev() {
        d[i] -= c[i] * d[i + 1];
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(diag(a) + c·11ᵀ) x − b` in the max-norm, by the explicit O(n²)
    /// product.
    fn diag_rank_one_residual(a: &[f64], c: f64, x: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        (0..n)
            .map(|i| {
                let row: f64 = (0..n)
                    .map(|j| (if i == j { a[i] } else { 0.0 } + c) * x[j])
                    .sum();
                (row - b[i]).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn diag_rank_one_solves_regular_systems() {
        let cases: [(&[f64], f64); 4] = [
            (&[2.0, -1.5, 4.0, 0.5], 0.75),
            (&[1.0], 2.0),
            // One zero diagonal entry: Sherman–Morrison proper would
            // divide by it.
            (&[3.0, 0.0, 1.25], 0.4),
            // One tiny entry, where 1/aₖ would swamp the other terms.
            (&[2.0, 1e-18, -0.5, 1.0], 0.3),
        ];
        for (a, c) in cases {
            let b: Vec<f64> = (0..a.len()).map(|i| 1.0 - 0.75 * i as f64).collect();
            let mut x = b.clone();
            solve_diag_rank_one(a, c, &mut x).unwrap();
            let residual = diag_rank_one_residual(a, c, &x, &b);
            assert!(
                residual < 1e-12,
                "a = {a:?}, c = {c}: residual {residual:e}"
            );
        }
    }

    #[test]
    fn diag_rank_one_detects_singularity() {
        // Two zero diagonal entries make two rows equal.
        assert_eq!(
            solve_diag_rank_one(&[0.0, 1.0, 0.0], 1.0, &mut [1.0, 2.0, 3.0]).unwrap_err(),
            NumError::SingularMatrix
        );
        // diag(1, 1) − ½·11ᵀ = [[½, −½], [−½, ½]]: the Sherman–Morrison
        // denominator 1 + c·Σ 1/aᵢ = 1 − ½·2 vanishes.
        assert_eq!(
            solve_diag_rank_one(&[1.0, 1.0], -0.5, &mut [1.0, 2.0]).unwrap_err(),
            NumError::SingularMatrix
        );
        // A zero diagonal with no rank-one part.
        assert_eq!(
            solve_diag_rank_one(&[0.0, 1.0], 0.0, &mut [1.0, 2.0]).unwrap_err(),
            NumError::SingularMatrix
        );
    }

    #[test]
    fn diag_rank_one_rejects_shape_mismatch() {
        assert!(matches!(
            solve_diag_rank_one(&[1.0; 3], 1.0, &mut [1.0; 2]),
            Err(NumError::InvalidInput(_))
        ));
        assert!(matches!(
            solve_diag_rank_one(&[], 1.0, &mut []),
            Err(NumError::InvalidInput(_))
        ));
    }

    #[test]
    fn tridiagonal_solves_known_system() {
        // [2 1 0; 1 2 1; 0 1 2] x = [4, 8, 8] → x = [1, 2, 3].
        let x = solve_tridiagonal(
            &[0.0, 1.0, 1.0],
            &[2.0, 2.0, 2.0],
            &[1.0, 1.0, 0.0],
            &[4.0, 8.0, 8.0],
        )
        .unwrap();
        for (got, want) in x.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn tridiagonal_band_residual_vanishes() {
        let n = 10;
        let sub: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { -1.0 + 0.05 * i as f64 }).collect();
        let diag: Vec<f64> = (0..n).map(|i| 4.0 + 0.1 * i as f64).collect();
        let sup: Vec<f64> = (0..n).map(|i| if i == n - 1 { 0.0 } else { -0.7 }).collect();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();

        let x = solve_tridiagonal(&sub, &diag, &sup, &rhs).unwrap();

        for i in 0..n {
            let mut ax = diag[i] * x[i];
            if i > 0 {
                ax += sub[i] * x[i - 1];
            }
            if i + 1 < n {
                ax += sup[i] * x[i + 1];
            }
            assert!((ax - rhs[i]).abs() < 1e-12, "row {i}: {ax} vs {}", rhs[i]);
        }
    }

    #[test]
    fn tridiagonal_rejects_mismatched_lengths() {
        assert!(solve_tridiagonal(&[0.0], &[1.0, 1.0], &[0.0, 0.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn tridiagonal_detects_zero_pivot() {
        assert!(matches!(
            solve_tridiagonal(&[0.0], &[0.0], &[0.0], &[1.0]),
            Err(NumError::SingularMatrix)
        ));
    }
}
