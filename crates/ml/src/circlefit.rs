//! Least-squares circle fitting (Kåsa method).
//!
//! The paper's sound-source distance verification "utilize\[s\] the
//! least-square circle fitting algorithm \[17\] to calculate the distance":
//! the phone's approach arc around the head/mouth is fit with a circle
//! whose radius estimates the phone-to-source distance.

/// A fitted circle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center x.
    pub cx: f64,
    /// Center y.
    pub cy: f64,
    /// Radius.
    pub radius: f64,
    /// Root-mean-square radial residual of the fit.
    pub rms_residual: f64,
}

/// Fits a circle to 2-D points by the Kåsa linear least-squares method.
///
/// Solves `x² + y² = 2cx·x + 2cy·y + (r² − cx² − cy²)` in the least-squares
/// sense via the 3×3 normal equations, on points taken relative to their
/// centroid. Centring keeps the sums on the scale of the radius: far from
/// the origin the raw power sums would dwarf it and cancel
/// catastrophically, so the radius would depend on where the arc lies.
///
/// Returns `None` for degenerate input: fewer than 3 points or (near-)
/// collinear points.
pub fn fit_circle(points: &[(f64, f64)]) -> Option<Circle> {
    if points.len() < 3 {
        return None;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let centred = || points.iter().map(|&(x, y)| (x - mx, y - my));
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut sxz, mut syz, mut sz) = (0.0, 0.0, 0.0);
    for (x, y) in centred() {
        let z = x * x + y * y;
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
        sxz += x * z;
        syz += y * z;
        sz += z;
    }
    // Normal equations for [a, b, c] with a = 2cx, b = 2cy, c = r² − cx² − cy².
    let m = [[sxx, sxy, sx], [sxy, syy, sy], [sx, sy, n]];
    let rhs = [sxz, syz, sz];
    let sol = solve3(m, rhs)?;
    // Centre relative to the centroid.
    let (ux, uy) = (sol[0] / 2.0, sol[1] / 2.0);
    let r2 = sol[2] + ux * ux + uy * uy;
    if !r2.is_finite() || r2 <= 0.0 {
        return None;
    }
    let radius = r2.sqrt();
    let rms = (centred()
        .map(|(x, y)| {
            let d = ((x - ux).powi(2) + (y - uy).powi(2)).sqrt();
            (d - radius).powi(2)
        })
        .sum::<f64>()
        / n)
        .sqrt();
    Some(Circle {
        cx: ux + mx,
        cy: uy + my,
        radius,
        rms_residual: rms,
    })
}

/// Solves a 3×3 linear system by Gaussian elimination with partial
/// pivoting; `None` if singular.
fn solve3(mut m: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot =
            (col..3).max_by(|&a, &c| m[a][col].abs().partial_cmp(&m[c][col].abs()).unwrap())?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..3 {
            let f = m[row][col] / m[col][col];
            for k in col..3 {
                m[row][k] -= f * m[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut acc = b[row];
        for k in row + 1..3 {
            acc -= m[row][k] * x[k];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(cx: f64, cy: f64, r: f64, from_deg: f64, to_deg: f64, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let a = (from_deg + (to_deg - from_deg) * i as f64 / (n - 1) as f64).to_radians();
                (cx + r * a.cos(), cy + r * a.sin())
            })
            .collect()
    }

    #[test]
    fn exact_circle_recovered() {
        let pts = arc(2.0, -1.0, 5.0, 0.0, 360.0, 40);
        let c = fit_circle(&pts).unwrap();
        assert!((c.cx - 2.0).abs() < 1e-9);
        assert!((c.cy + 1.0).abs() < 1e-9);
        assert!((c.radius - 5.0).abs() < 1e-9);
        assert!(c.rms_residual < 1e-9);
    }

    #[test]
    fn partial_arc_recovered() {
        // The paper's use case: the phone sweeps only a partial arc.
        let pts = arc(0.0, 0.0, 0.08, 40.0, 140.0, 25);
        let c = fit_circle(&pts).unwrap();
        assert!((c.radius - 0.08).abs() < 1e-6, "radius {}", c.radius);
    }

    #[test]
    fn noisy_arc_radius_close() {
        let mut pts = arc(0.0, 0.0, 0.10, 0.0, 180.0, 50);
        for (i, p) in pts.iter_mut().enumerate() {
            let e = 0.002 * (((i * 2654435761) % 100) as f64 / 50.0 - 1.0);
            p.0 += e;
            p.1 -= e;
        }
        let c = fit_circle(&pts).unwrap();
        assert!((c.radius - 0.10).abs() < 0.01, "radius {}", c.radius);
        assert!(c.rms_residual < 0.01);
    }

    #[test]
    fn collinear_points_rejected() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64)).collect();
        assert!(fit_circle(&pts).is_none());
    }

    #[test]
    fn too_few_points_rejected() {
        assert!(fit_circle(&[(0.0, 0.0), (1.0, 0.0)]).is_none());
    }
}
