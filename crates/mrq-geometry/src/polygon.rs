//! Convex polygons in the plane and their split by a line.
//!
//! At d = 3 the reduced query space is a plane.  Inside a quad-tree leaf the
//! cells of the arrangement are the faces cut out of one convex polygon (the
//! leaf box clipped by the permissible simplex) by the leaf's lines, so they
//! can be built directly by splitting polygons, one line at a time, instead
//! of deciding every candidate sign pattern with an LP.
//!
//! Vertices are classified against a line `a · x = b` (with `|a| = 1`) by
//! their signed distance `a · v − b`: more than [`EPS`] is inside, less than
//! −[`EPS`] is outside, anything else lies on the line and belongs to both
//! parts.

use crate::EPS;

/// A convex polygon given by its vertices in boundary order.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    /// Vertices in boundary order (either orientation).
    pub vertices: Vec<[f64; 2]>,
}

/// Result of [`Polygon::split`] by the open half-plane `a · x > b`.
#[derive(Debug, Clone, PartialEq)]
pub enum Split {
    /// No vertex lies inside: the whole polygon is on the outside.
    Outside,
    /// No vertex lies outside: the whole polygon is on the inside.
    Inside,
    /// The line crosses the polygon: `(outside part, inside part)`.
    Both(Polygon, Polygon),
}

impl Polygon {
    /// The axis-parallel rectangle `[lo, hi]`, counter-clockwise.
    pub fn rectangle(lo: [f64; 2], hi: [f64; 2]) -> Polygon {
        Polygon {
            vertices: vec![
                [lo[0], lo[1]],
                [hi[0], lo[1]],
                [hi[0], hi[1]],
                [lo[0], hi[1]],
            ],
        }
    }

    /// Splits the polygon by the line `a · x = b` (`a` of unit length) into
    /// the parts outside and inside the open half-plane `a · x > b`.
    ///
    /// A part exists only when at least one vertex lies strictly (by more
    /// than [`EPS`]) on its side; a polygon all of whose vertices lie within
    /// [`EPS`] of the line counts as outside.
    pub fn split(&self, a: [f64; 2], b: f64) -> Split {
        let side = |v: &[f64; 2]| a[0] * v[0] + a[1] * v[1] - b;
        let (mut any_in, mut any_out) = (false, false);
        for v in &self.vertices {
            let s = side(v);
            any_in |= s > EPS;
            any_out |= s < -EPS;
        }
        match (any_out, any_in) {
            (_, false) => return Split::Outside,
            (false, true) => return Split::Inside,
            (true, true) => {}
        }
        let n = self.vertices.len();
        let mut outside = Vec::with_capacity(n + 2);
        let mut inside = Vec::with_capacity(n + 2);
        for (i, p) in self.vertices.iter().enumerate() {
            let q = &self.vertices[(i + 1) % n];
            let (sp, sq) = (side(p), side(q));
            if sp >= -EPS {
                inside.push(*p);
            }
            if sp <= EPS {
                outside.push(*p);
            }
            if (sp > EPS && sq < -EPS) || (sp < -EPS && sq > EPS) {
                let t = sp / (sp - sq);
                let x = [p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])];
                inside.push(x);
                outside.push(x);
            }
        }
        Split::Both(Polygon { vertices: outside }, Polygon { vertices: inside })
    }

    /// The average of the vertices: an interior point of a non-degenerate
    /// convex polygon.
    pub fn vertex_centroid(&self) -> [f64; 2] {
        let n = self.vertices.len() as f64;
        let (sx, sy) = self
            .vertices
            .iter()
            .fold((0.0, 0.0), |(sx, sy), v| (sx + v[0], sy + v[1]));
        [sx / n, sy / n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(p: &Polygon) -> f64 {
        let v = &p.vertices;
        let n = v.len();
        (0..n)
            .map(|i| {
                let (a, b) = (v[i], v[(i + 1) % n]);
                a[0] * b[1] - b[0] * a[1]
            })
            .sum::<f64>()
            .abs()
            / 2.0
    }

    #[test]
    fn diagonal_split_of_the_unit_square() {
        let square = Polygon::rectangle([0.0, 0.0], [1.0, 1.0]);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        // x + y > 1 through two opposite corners: two triangles.
        let Split::Both(out, inside) = square.split([r, r], r) else {
            panic!("the diagonal crosses the square");
        };
        assert_eq!(out.vertices.len(), 3);
        assert_eq!(inside.vertices.len(), 3);
        assert!((area(&out) - 0.5).abs() < 1e-12);
        assert!((area(&inside) - 0.5).abs() < 1e-12);
        let c = inside.vertex_centroid();
        assert!(c[0] + c[1] > 1.0);
    }

    #[test]
    fn crossing_edges_creates_intersection_vertices() {
        let square = Polygon::rectangle([0.0, 0.0], [1.0, 1.0]);
        // x > 0.25: a 0.25 × 1 strip outside, 0.75 × 1 inside.
        let Split::Both(out, inside) = square.split([1.0, 0.0], 0.25) else {
            panic!("x = 0.25 crosses the square");
        };
        assert_eq!(out.vertices.len(), 4);
        assert_eq!(inside.vertices.len(), 4);
        assert!((area(&out) - 0.25).abs() < 1e-12);
        assert!((area(&inside) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lines_missing_or_touching_the_polygon_do_not_split_it() {
        let square = Polygon::rectangle([0.0, 0.0], [1.0, 1.0]);
        assert_eq!(square.split([1.0, 0.0], -0.5), Split::Inside);
        assert_eq!(square.split([1.0, 0.0], 1.5), Split::Outside);
        // Along an edge, or through one corner only: nothing is cut off.
        assert_eq!(square.split([1.0, 0.0], 0.0), Split::Inside);
        assert_eq!(square.split([-1.0, 0.0], -1.0), Split::Inside);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert_eq!(square.split([r, r], 2.0 * r), Split::Outside);
        // Within EPS of an edge still counts as on it.
        assert_eq!(square.split([1.0, 0.0], EPS / 2.0), Split::Inside);
        // A polygon flat along the line counts as outside.
        let flat = Polygon {
            vertices: vec![[0.0, 0.0], [1.0, 0.0], [0.5, EPS / 4.0]],
        };
        assert_eq!(flat.split([0.0, 1.0], 0.0), Split::Outside);
    }

    #[test]
    fn split_parts_cover_the_polygon() {
        // Many lines through a triangle: the two parts' areas add up and
        // each part lies on its own side of the line.
        let tri = Polygon {
            vertices: vec![[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        };
        for k in 0..24 {
            let theta = k as f64 * 0.2618 + 0.1;
            let a = [theta.cos(), theta.sin()];
            let b = 0.1 + 0.013 * k as f64;
            match tri.split(a, b) {
                Split::Both(out, inside) => {
                    assert!((area(&out) + area(&inside) - 0.5).abs() < 1e-12);
                    for v in &inside.vertices {
                        assert!(a[0] * v[0] + a[1] * v[1] - b >= -EPS);
                    }
                    for v in &out.vertices {
                        assert!(a[0] * v[0] + a[1] * v[1] - b <= EPS);
                    }
                }
                Split::Inside | Split::Outside => {}
            }
        }
    }
}
