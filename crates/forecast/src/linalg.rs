//! Minimal dense linear algebra for the EGRV least-squares fits.
//!
//! The EGRV model solves one small normal-equations system per intra-day
//! period (at most a dozen regressors), so a simple Cholesky factorization
//! with a ridge fallback is entirely sufficient — and keeps the workspace
//! free of an external linear-algebra dependency.

/// Errors from the tiny solver.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The system matrix was not positive definite even after ridging.
    NotPositiveDefinite,
    /// Dimension mismatch between rows/columns/vectors.
    DimensionMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite => write!(f, "matrix not positive definite"),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Cholesky factorization of a symmetric positive-definite matrix given in
/// row-major order. Returns the lower-triangular factor `L` (row-major),
/// such that `A = L Lᵀ`.
pub fn cholesky(a: &[f64], n: usize) -> Result<Vec<f64>, LinalgError> {
    if a.len() != n * n {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Ok(l)
}

/// Solve `A x = b` for symmetric positive-definite `A` via Cholesky.
pub fn solve_spd(a: &[f64], b: &[f64], n: usize) -> Result<Vec<f64>, LinalgError> {
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    let l = cholesky(a, n)?;
    // forward substitution L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
    // back substitution Lᵀ x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    Ok(x)
}

/// Ordinary least squares via the normal equations with a ridge term:
/// solves `(XᵀX + λI) β = Xᵀy`. Each row of `rows` is one observation's
/// regressor vector; all rows must share the same length.
///
/// The ridge `lambda` (e.g. `1e-8 … 1e-4`) guards against collinear
/// dummies; if the ridged system is still not positive definite the ridge
/// is escalated ×100 up to three times before giving up.
pub fn ridge_ols(rows: &[Vec<f64>], y: &[f64], lambda: f64) -> Result<Vec<f64>, LinalgError> {
    let m = rows.len();
    if m == 0 || m != y.len() {
        return Err(LinalgError::DimensionMismatch);
    }
    let k = rows[0].len();
    if k == 0 || rows.iter().any(|r| r.len() != k) {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut xtx = vec![0.0; k * k];
    let mut xty = vec![0.0; k];
    for (row, &yi) in rows.iter().zip(y) {
        for i in 0..k {
            xty[i] += row[i] * yi;
            for j in 0..=i {
                xtx[i * k + j] += row[i] * row[j];
            }
        }
    }
    // mirror lower triangle to upper
    for i in 0..k {
        for j in 0..i {
            xtx[j * k + i] = xtx[i * k + j];
        }
    }
    let mut lam = lambda.max(0.0);
    for _ in 0..4 {
        let mut a = xtx.clone();
        for i in 0..k {
            a[i * k + i] += lam;
        }
        match solve_spd(&a, &xty, k) {
            Ok(beta) => return Ok(beta),
            Err(LinalgError::NotPositiveDefinite) => {
                lam = if lam == 0.0 { 1e-8 } else { lam * 100.0 };
            }
            Err(e) => return Err(e),
        }
    }
    Err(LinalgError::NotPositiveDefinite)
}

/// Dot product of a regressor row and a coefficient vector.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let l = cholesky(&a, 2).unwrap();
        assert_eq!(l, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn cholesky_known_factor() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]]
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let l = cholesky(&a, 2).unwrap();
        assert!((l[0] - 2.0).abs() < 1e-12);
        assert!((l[2] - 1.0).abs() < 1e-12);
        assert!((l[3] - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert_eq!(cholesky(&a, 2), Err(LinalgError::NotPositiveDefinite));
    }

    #[test]
    fn solve_spd_roundtrip() {
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let x_true = [1.0, -2.0];
        let b = [4.0 * 1.0 + 2.0 * -2.0, 2.0 * 1.0 + 3.0 * -2.0];
        let x = solve_spd(&a, &b, 2).unwrap();
        assert!((x[0] - x_true[0]).abs() < 1e-12);
        assert!((x[1] - x_true[1]).abs() < 1e-12);
    }

    #[test]
    fn ols_recovers_exact_linear_model() {
        // y = 3 + 2 x
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![1.0, i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 3.0 + 2.0 * i as f64).collect();
        let beta = ridge_ols(&rows, &y, 1e-10).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-6);
        assert!((beta[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ols_handles_collinear_columns_via_ridge() {
        // second and third columns identical: rank deficient
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0, i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 1.0 + 4.0 * i as f64).collect();
        let beta = ridge_ols(&rows, &y, 1e-6).unwrap();
        // the two collinear coefficients split the true slope
        assert!((beta[1] + beta[2] - 4.0).abs() < 1e-3);
    }

    #[test]
    fn ols_dimension_errors() {
        assert_eq!(
            ridge_ols(&[], &[], 0.0),
            Err(LinalgError::DimensionMismatch)
        );
        assert_eq!(
            ridge_ols(&[vec![1.0]], &[1.0, 2.0], 0.0),
            Err(LinalgError::DimensionMismatch)
        );
        assert_eq!(
            ridge_ols(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], 0.0),
            Err(LinalgError::DimensionMismatch)
        );
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
