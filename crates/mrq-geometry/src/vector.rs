//! Dense vector arithmetic over `f64` slices.
//!
//! Records, query vectors and hyperplane normals are all plain `&[f64]`
//! slices throughout the workspace; this module holds the shared arithmetic
//! so that the scoring convention (`S(r) = r · q`) lives in exactly one place.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot product of mismatched lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The linear top-k score of record `r` under query vector `q`:
/// `S(r) = Σ r_i · q_i`.
#[inline]
pub fn score(r: &[f64], q: &[f64]) -> f64 {
    dot(r, q)
}

/// Component-wise difference `a - b` as a newly allocated vector.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Euclidean norm.
#[inline]
pub fn l2_norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Manhattan norm.
#[inline]
pub fn l1_norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn score_matches_paper_example() {
        // Figure 1(a): p = (0.5, 0.5), q1 = (0.7, 0.3) => S1(p) = 0.5.
        let p = [0.5, 0.5];
        let q1 = [0.7, 0.3];
        assert!((score(&p, &q1) - 0.5).abs() < 1e-12);
        // r3 = (0.9, 0.4) => S1(r3) = 0.75.
        assert!((score(&[0.9, 0.4], &q1) - 0.75).abs() < 1e-12);
        // r2 = (0.2, 0.7) w.r.t. q2 = (0.1, 0.9) => 0.65.
        assert!((score(&[0.2, 0.7], &[0.1, 0.9]) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn sub_basic() {
        assert_eq!(sub(&[3.0, 4.0], &[1.0, 6.0]), vec![2.0, -2.0]);
    }

    #[test]
    fn norms() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((l1_norm(&[-3.0, 4.0]) - 7.0).abs() < 1e-12);
    }
}
