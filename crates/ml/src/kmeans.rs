//! K-means clustering with k-means++ seeding.
//!
//! Used to bootstrap GMM means before EM refinement, as is standard in
//! UBM training pipelines.

use magshield_simkit::rng::SimRng;
use std::cmp::Ordering;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centers, `k × dim`.
    pub centers: Vec<Vec<f64>>,
    /// Assignment of each input point to a center index.
    pub assignments: Vec<usize>,
    /// Final total within-cluster squared distance.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Squared Euclidean distance.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

/// Index of the centre nearest to `p`, computing each distance once. Ties
/// go to the lowest index and a NaN distance panics once there are two
/// centres to compare, as `(0..k).min_by(partial_cmp().unwrap())` does.
fn nearest_center(p: &[f64], centers: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = dist2(p, &centers[0]);
    for (c, center) in centers.iter().enumerate().skip(1) {
        let d = dist2(p, center);
        if best_d.partial_cmp(&d).expect("k-means distance is NaN") == Ordering::Greater {
            best = c;
            best_d = d;
        }
    }
    best
}

/// Runs k-means++ followed by Lloyd iterations.
///
/// # Panics
///
/// Panics if `data` is empty, `k == 0`, `k > data.len()`, or rows have
/// inconsistent dimension.
pub fn kmeans(data: &[Vec<f64>], k: usize, max_iters: usize, rng: &SimRng) -> KMeansResult {
    assert!(!data.is_empty(), "k-means needs data");
    assert!(k > 0 && k <= data.len(), "k must be in 1..=n, got {k}");
    let dim = data[0].len();
    assert!(
        data.iter().all(|r| r.len() == dim),
        "all rows must share a dimension"
    );
    let mut rng = rng.fork("kmeans");

    // --- k-means++ seeding ---
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    centers.push(data[rng.index(data.len())].clone());
    let mut d2: Vec<f64> = data.iter().map(|p| dist2(p, &centers[0])).collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All residual distance zero (duplicate points): pick any.
            rng.index(data.len())
        } else {
            let mut target = rng.uniform(0.0, total);
            let mut idx = 0;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    idx = i;
                    break;
                }
            }
            idx
        };
        centers.push(data[next].clone());
        for (i, p) in data.iter().enumerate() {
            d2[i] = d2[i].min(dist2(p, centers.last().unwrap()));
        }
    }

    // --- Lloyd iterations ---
    let mut assignments = vec![0usize; data.len()];
    let mut iterations = 0;
    for it in 0..max_iters {
        iterations = it + 1;
        let mut changed = false;
        for (i, p) in data.iter().enumerate() {
            let best = nearest_center(p, &centers);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in data.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dim {
                    centers[c][d] = sums[c][d] / counts[c] as f64;
                }
            } else {
                // Re-seed an empty cluster at a random point.
                centers[c] = data[rng.index(data.len())].clone();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let inertia = data
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| dist2(p, &centers[a]))
        .sum();
    KMeansResult {
        centers,
        assignments,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(rng: &SimRng) -> Vec<Vec<f64>> {
        let mut r = rng.fork("blobs");
        let mut data = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
            for _ in 0..50 {
                data.push(vec![cx + r.gauss(0.0, 0.5), cy + r.gauss(0.0, 0.5)]);
            }
        }
        data
    }

    #[test]
    fn recovers_three_blobs() {
        let rng = SimRng::from_seed(42);
        let data = blobs(&rng);
        let res = kmeans(&data, 3, 100, &rng);
        // Each true blob center should be within 0.5 of a found center.
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
            let best = res
                .centers
                .iter()
                .map(|c| ((c[0] - cx).powi(2) + (c[1] - cy).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.5, "blob ({cx},{cy}) missed by {best}");
        }
        assert!(res.inertia < 150.0, "inertia {}", res.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = vec![vec![0.0], vec![5.0], vec![9.0]];
        let res = kmeans(&data, 3, 50, &SimRng::from_seed(1));
        assert!(res.inertia < 1e-18);
    }

    #[test]
    fn assignments_cover_all_points() {
        let rng = SimRng::from_seed(7);
        let data = blobs(&rng);
        let res = kmeans(&data, 3, 100, &rng);
        assert_eq!(res.assignments.len(), data.len());
        assert!(res.assignments.iter().all(|&a| a < 3));
    }

    #[test]
    fn deterministic_given_seed() {
        let rng = SimRng::from_seed(5);
        let data = blobs(&rng);
        let a = kmeans(&data, 3, 100, &SimRng::from_seed(9));
        let b = kmeans(&data, 3, 100, &SimRng::from_seed(9));
        assert_eq!(a.centers, b.centers);
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        let data = vec![vec![1.0, 1.0]; 20];
        let res = kmeans(&data, 3, 50, &SimRng::from_seed(2));
        assert!(res.inertia < 1e-18);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn rejects_k_larger_than_n() {
        kmeans(&[vec![1.0]], 2, 10, &SimRng::from_seed(1));
    }
}
