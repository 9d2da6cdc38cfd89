//! Property-based tests for the ML kernels.

use magshield_dsp::FrameMatrix;
use magshield_ml::circlefit::fit_circle;
use magshield_ml::gmm::{
    llr_drift_bound, llr_score_prepared, llr_score_quantized, llr_score_sequential, log_sum_exp,
    DiagonalGmm, PreparedGmm, QuantizedGmm, ScoreScratch,
};
use magshield_ml::kmeans::kmeans;
use magshield_ml::metrics::equal_error_rate;
use magshield_ml::scaler::StandardScaler;
use magshield_ml::svm::{LinearSvm, SvmConfig};
use magshield_simkit::prop::prelude::*;
use magshield_simkit::rng::SimRng;
use std::cmp::Ordering;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// K-means inertia never increases when k grows.
    #[test]
    fn kmeans_inertia_monotone_in_k(seed in 0u64..1000) {
        let mut r = SimRng::from_seed(seed);
        let data: Vec<Vec<f64>> = (0..40)
            .map(|_| vec![r.gauss(0.0, 3.0), r.gauss(0.0, 3.0)])
            .collect();
        let rng = SimRng::from_seed(seed ^ 0xABCD);
        let i2 = kmeans(&data, 2, 50, &rng).inertia;
        let i8 = kmeans(&data, 8, 50, &rng).inertia;
        // k-means++ with more clusters on the same data should fit tighter
        // (allow a hair of slack for local optima).
        prop_assert!(i8 <= i2 * 1.05 + 1e-9, "inertia k=8 {i8} vs k=2 {i2}");
    }

    /// GMM responsibilities always form a probability distribution.
    #[test]
    fn gmm_responsibilities_simplex(seed in 0u64..500, x in -10.0f64..10.0, y in -10.0f64..10.0) {
        let mut r = SimRng::from_seed(seed);
        let data: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![r.gauss(0.0, 2.0), r.gauss(1.0, 2.0)])
            .collect();
        let gmm = DiagonalGmm::train(&data, 3, 8, 1e-6, &SimRng::from_seed(seed));
        let resp = gmm.responsibilities(&[x, y]);
        let total: f64 = resp.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(resp.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
    }

    /// log_sum_exp is invariant to additive shifts (up to the shift).
    #[test]
    fn log_sum_exp_shift(values in prop::collection::vec(-50.0f64..50.0, 1..16), shift in -100.0f64..100.0) {
        let base = log_sum_exp(&values);
        let shifted: Vec<f64> = values.iter().map(|v| v + shift).collect();
        prop_assert!((log_sum_exp(&shifted) - (base + shift)).abs() < 1e-9);
    }

    /// The SVM never does worse than chance on its own training set when
    /// classes are balanced and separated.
    #[test]
    fn svm_beats_chance(seed in 0u64..500, sep in 1.5f64..5.0) {
        let mut r = SimRng::from_seed(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let c = if i % 2 == 0 { 1.0 } else { -1.0 };
            data.push(vec![r.gauss(c * sep, 1.0), r.gauss(0.0, 1.0)]);
            labels.push(c);
        }
        let svm = LinearSvm::train(&data, &labels, SvmConfig::default(), &SimRng::from_seed(seed));
        prop_assert!(svm.accuracy(&data, &labels) > 0.7);
    }

    /// Scaler transform/inverse round-trips.
    #[test]
    fn scaler_round_trip(rows in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 3), 2..20)) {
        let sc = StandardScaler::fit(&rows);
        for r in &rows {
            let back = sc.inverse_transform(&sc.transform(r));
            for (a, b) in back.iter().zip(r) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
            }
        }
    }

    /// Circle fit residual is ~0 for exact circles and the recovered radius
    /// is invariant to translation.
    #[test]
    fn circle_fit_translation_invariant(
        tx in -100.0f64..100.0,
        ty in -100.0f64..100.0,
        r in 0.05f64..5.0,
    ) {
        let pts: Vec<(f64, f64)> = (0..24)
            .map(|i| {
                let a = 0.3 + 2.0 * i as f64 / 23.0;
                (r * a.cos(), r * a.sin())
            })
            .collect();
        let moved: Vec<(f64, f64)> = pts.iter().map(|(x, y)| (x + tx, y + ty)).collect();
        let c0 = fit_circle(&pts).unwrap();
        let c1 = fit_circle(&moved).unwrap();
        prop_assert!((c0.radius - c1.radius).abs() < 1e-6 * (1.0 + r));
    }

    /// The prepared fast-path scorer with C=all is score-exact against the
    /// reference `llr_score` (to the documented 1e-9 fused-constant
    /// tolerance), over random mixtures, adaptations, and frame sets — in
    /// both frame layouts. Values of `top_c >= k` or `0` must behave
    /// identically.
    #[test]
    fn fast_path_c_all_matches_reference_scorer(
        seed in 0u64..500,
        k in 1usize..6,
        n_frames in 1usize..40,
        relevance in 4.0f64..32.0,
    ) {
        let mut r = SimRng::from_seed(seed);
        let data: Vec<Vec<f64>> = (0..80)
            .map(|_| vec![r.gauss(0.0, 2.0), r.gauss(1.0, 2.0), r.gauss(-1.0, 1.5)])
            .collect();
        let ubm = DiagonalGmm::train(&data, k, 6, 1e-6, &SimRng::from_seed(seed));
        let model = ubm.map_adapt_means(&data[..40].to_vec(), relevance);
        let frames: Vec<Vec<f64>> = (0..n_frames)
            .map(|_| vec![r.gauss(0.5, 2.0), r.gauss(0.0, 2.0), r.gauss(0.0, 1.5)])
            .collect();
        let reference = model.llr_score(&ubm, &frames);
        let (spk, bg) = (PreparedGmm::new(&model), PreparedGmm::new(&ubm));
        let mut scratch = ScoreScratch::new();
        let matrix = FrameMatrix::from_rows(&frames);
        for top_c in [0, k, k + 7] {
            let vecs = llr_score_prepared(&spk, &bg, &frames, top_c, &mut scratch);
            let flat = llr_score_prepared(&spk, &bg, &matrix, top_c, &mut scratch);
            prop_assert!(
                (vecs.score - reference).abs() < 1e-9,
                "top_c={top_c}: fast {} vs reference {reference}",
                vecs.score
            );
            prop_assert_eq!(vecs.score, flat.score, "layouts must agree bitwise");
            prop_assert_eq!(vecs.pruned_components, 0);
        }
    }

    /// Pruned scoring never exceeds the exact score (speaker term is a
    /// subset log-sum) and prunes exactly (k − C) components per frame.
    #[test]
    fn pruning_is_a_lower_bound_with_exact_accounting(
        seed in 0u64..500,
        top_c in 1usize..4,
        n_frames in 1usize..30,
    ) {
        let k = 4;
        let mut r = SimRng::from_seed(seed ^ 0x5A5A);
        let data: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![r.gauss(0.0, 2.0), r.gauss(0.0, 2.0)])
            .collect();
        let ubm = DiagonalGmm::train(&data, k, 6, 1e-6, &SimRng::from_seed(seed));
        let model = ubm.map_adapt_means(&data[..30].to_vec(), 16.0);
        let frames: Vec<Vec<f64>> = (0..n_frames)
            .map(|_| vec![r.gauss(0.0, 2.0), r.gauss(0.0, 2.0)])
            .collect();
        let (spk, bg) = (PreparedGmm::new(&model), PreparedGmm::new(&ubm));
        let mut scratch = ScoreScratch::new();
        let exact = llr_score_prepared(&spk, &bg, &frames, 0, &mut scratch);
        let pruned = llr_score_prepared(&spk, &bg, &frames, top_c, &mut scratch);
        prop_assert!(pruned.score <= exact.score + 1e-12);
        let expected_pruned = if top_c >= k { 0 } else { (n_frames * (k - top_c)) as u64 };
        prop_assert_eq!(pruned.pruned_components, expected_pruned);
    }

    /// The frame-major batched scorer is *bitwise* identical to the
    /// retained one-frame-at-a-time oracle — same score bits, same
    /// pruning accounting — across mixture sizes, frame counts that are
    /// not multiples of the 8-frame block, and every top-C regime
    /// (exhaustive, pruned, degenerate).
    #[test]
    fn batched_scorer_is_bit_identical_to_sequential(
        seed in 0u64..500,
        k in 1usize..6,
        n_frames in 1usize..40,
        top_c in 0usize..8,
    ) {
        let mut r = SimRng::from_seed(seed ^ 0xB17);
        let data: Vec<Vec<f64>> = (0..80)
            .map(|_| vec![r.gauss(0.0, 2.0), r.gauss(1.0, 2.0), r.gauss(-1.0, 1.5)])
            .collect();
        let ubm = DiagonalGmm::train(&data, k, 6, 1e-6, &SimRng::from_seed(seed));
        let model = ubm.map_adapt_means(&data[..40].to_vec(), 16.0);
        let frames: Vec<Vec<f64>> = (0..n_frames)
            .map(|_| vec![r.gauss(0.5, 2.0), r.gauss(0.0, 2.0), r.gauss(0.0, 1.5)])
            .collect();
        let spk = PreparedGmm::new(&model);
        let bg = PreparedGmm::new(&ubm);
        let mut scratch = ScoreScratch::new();
        let batched = llr_score_prepared(&spk, &bg, &frames, top_c, &mut scratch);
        let sequential = llr_score_sequential(&spk, &bg, &frames, top_c, &mut scratch);
        prop_assert_eq!(
            batched.score.to_bits(),
            sequential.score.to_bits(),
            "batched {} vs sequential {}",
            batched.score,
            sequential.score
        );
        prop_assert_eq!(batched.frames, sequential.frames);
        prop_assert_eq!(batched.pruned_components, sequential.pruned_components);
        prop_assert_eq!(batched.evaluated_components, sequential.evaluated_components);
    }

    /// The quantized scorer's drift from the exact prepared scorer stays
    /// inside the analytic [`llr_drift_bound`] computed from the stored
    /// rounding errors — the bound is sound, not just the observed error
    /// small.
    #[test]
    fn quantized_score_within_analytic_drift_bound(
        seed in 0u64..500,
        k in 1usize..6,
        n_frames in 1usize..40,
    ) {
        let mut r = SimRng::from_seed(seed ^ 0x0DD);
        let data: Vec<Vec<f64>> = (0..80)
            .map(|_| vec![r.gauss(0.0, 2.0), r.gauss(1.0, 2.0), r.gauss(-1.0, 1.5)])
            .collect();
        let ubm = DiagonalGmm::train(&data, k, 6, 1e-6, &SimRng::from_seed(seed));
        let model = ubm.map_adapt_means(&data[..40].to_vec(), 16.0);
        let frames: Vec<Vec<f64>> = (0..n_frames)
            .map(|_| vec![r.gauss(0.5, 2.0), r.gauss(0.0, 2.0), r.gauss(0.0, 1.5)])
            .collect();
        let spk = PreparedGmm::new(&model);
        let bg = PreparedGmm::new(&ubm);
        let spk_q = QuantizedGmm::from_prepared(&spk);
        let bg_q = QuantizedGmm::from_prepared(&bg);
        let x_abs_max = frames
            .iter()
            .flatten()
            .fold(0.0f64, |a, &x| a.max(x.abs()));
        let mut scratch = ScoreScratch::new();
        let exact = llr_score_prepared(&spk, &bg, &frames, 0, &mut scratch);
        let quant = llr_score_quantized(&spk_q, &bg_q, &frames, 0, &mut scratch);
        let bound = llr_drift_bound(&spk, &spk_q, &bg, &bg_q, x_abs_max);
        let drift = (quant.score - exact.score).abs();
        prop_assert!(
            drift <= bound * (1.0 + 1e-12) + 1e-9,
            "drift {drift} exceeds analytic bound {bound}"
        );
    }

    /// EER is symmetric under swapping + negating the score sets.
    #[test]
    fn eer_symmetry(
        genuine in prop::collection::vec(-10.0f64..10.0, 2..20),
        impostor in prop::collection::vec(-10.0f64..10.0, 2..20),
    ) {
        let e1 = equal_error_rate(&genuine, &impostor);
        // Negate scores and swap roles: acceptance region flips, EER holds.
        let ng: Vec<f64> = impostor.iter().map(|s| -s).collect();
        let ni: Vec<f64> = genuine.iter().map(|s| -s).collect();
        let e2 = equal_error_rate(&ng, &ni);
        prop_assert!((e1 - e2).abs() < 0.15, "EER {e1} vs swapped {e2}");
    }
}

/// Frame counts around the 8-frame block edge: none, one, a short block,
/// a full block, a full block plus one, and `8m + 3` (which crosses the
/// EM chunk size for large `m`).
fn block_edge_count(pick: usize, m: usize) -> usize {
    [0, 1, 7, 8, 9, 8 * m + 3][pick]
}

/// A random valid mixture and `n` random frames in its dimension.
fn random_mixture_and_frames(seed: u64, k: usize, n: usize) -> (DiagonalGmm, Vec<Vec<f64>>) {
    let dim = 1 + (seed % 4) as usize;
    let mut r = SimRng::from_seed(seed);
    let raw: Vec<f64> = (0..k).map(|_| r.uniform(0.1, 1.0)).collect();
    let total: f64 = raw.iter().sum();
    let gmm = DiagonalGmm::from_parameters(
        raw.iter().map(|w| w / total).collect(),
        (0..k)
            .map(|_| (0..dim).map(|_| r.gauss(0.0, 3.0)).collect())
            .collect(),
        (0..k)
            .map(|_| (0..dim).map(|_| r.uniform(1e-3, 4.0)).collect())
            .collect(),
    );
    let frames = (0..n)
        .map(|_| (0..dim).map(|_| r.gauss(0.0, 4.0)).collect())
        .collect();
    (gmm, frames)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn mixture_bits(g: &DiagonalGmm) -> Vec<u64> {
    let means = g.means().iter().flatten();
    let vars = g.variances().iter().flatten();
    g.weights()
        .iter()
        .chain(means)
        .chain(vars)
        .map(|x| x.to_bits())
        .collect()
}

/// MAP adaptation of the means, accumulated one frame at a time from the
/// per-frame reference responsibilities: the oracle for
/// `map_adapt_means` and `map_adapt_means_with`.
fn map_adapt_oracle(ubm: &DiagonalGmm, frames: &[Vec<f64>], relevance: f64) -> DiagonalGmm {
    let (k, dim) = (ubm.num_components(), ubm.dim());
    let mut nk = vec![0.0; k];
    let mut sum = vec![vec![0.0; dim]; k];
    for x in frames {
        let r = ubm.responsibilities(x);
        for c in 0..k {
            nk[c] += r[c];
            for d in 0..dim {
                sum[c][d] += r[c] * x[d];
            }
        }
    }
    let mut means = ubm.means().to_vec();
    for c in 0..k {
        if nk[c] < 1e-10 {
            continue;
        }
        let alpha = nk[c] / (nk[c] + relevance);
        for d in 0..dim {
            means[c][d] = alpha * (sum[c][d] / nk[c]) + (1.0 - alpha) * ubm.means()[c][d];
        }
    }
    DiagonalGmm::from_parameters(ubm.weights().to_vec(), means, ubm.variances().to_vec())
}

/// `iters` EM iterations from `init`, with a per-frame E step: the oracle
/// for `DiagonalGmm::train`'s frame-major E step. `1e-4` is the variance
/// floor `train` applies.
fn em_oracle(init: &DiagonalGmm, data: &[Vec<f64>], iters: usize) -> DiagonalGmm {
    let (k, dim, n) = (init.num_components(), init.dim(), data.len() as f64);
    let mut gmm = init.clone();
    for _ in 0..iters {
        let mut nk = vec![0.0; k];
        let mut sum = vec![vec![0.0; dim]; k];
        let mut sumsq = vec![vec![0.0; dim]; k];
        for x in data {
            let r = gmm.responsibilities(x);
            for c in 0..k {
                nk[c] += r[c];
                for d in 0..dim {
                    sum[c][d] += r[c] * x[d];
                    sumsq[c][d] += r[c] * x[d] * x[d];
                }
            }
        }
        let mut weights = gmm.weights().to_vec();
        let mut means = gmm.means().to_vec();
        let mut variances = gmm.variances().to_vec();
        for c in 0..k {
            if nk[c] < 1e-8 {
                continue;
            }
            weights[c] = nk[c] / n;
            for d in 0..dim {
                let m = sum[c][d] / nk[c];
                means[c][d] = m;
                variances[c][d] = (sumsq[c][d] / nk[c] - m * m).max(1e-4);
            }
        }
        let wsum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= wsum;
        }
        gmm = DiagonalGmm::from_parameters(weights, means, variances);
    }
    gmm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every row of the frame-major responsibility matrix, and each
    /// frame's log-likelihood, is bit-identical to the per-frame reference
    /// in both frame layouts.
    #[test]
    fn responsibility_matrix_is_bit_identical_to_per_frame(
        seed in 0u64..10_000,
        k in 1usize..6,
        pick in 0usize..6,
        m in 1usize..140,
    ) {
        let n = block_edge_count(pick, m);
        let (gmm, frames) = random_mixture_and_frames(seed, k, n);
        let resp = gmm.responsibility_matrix(&frames);
        prop_assert_eq!(resp.num_frames(), n);
        for (i, x) in frames.iter().enumerate() {
            prop_assert_eq!(bits(resp.row(i)), bits(&gmm.responsibilities(x)), "frame {}", i);
            prop_assert_eq!(
                resp.log_likelihoods()[i].to_bits(),
                gmm.log_pdf(x).to_bits(),
                "frame {}", i
            );
        }
        prop_assert!(gmm.responsibility_matrix(&FrameMatrix::from_rows(&frames)) == resp);
    }

    /// MAP adaptation, on one frame set or on several sharing precomputed
    /// responsibilities, is bit-identical to per-frame accumulation over
    /// the concatenated frames.
    #[test]
    fn map_adaptation_is_bit_identical_to_per_frame(
        seed in 0u64..10_000,
        k in 1usize..6,
        pick in 0usize..6,
        m in 1usize..140,
        cut in 0usize..1000,
        relevance in 4.0f64..32.0,
    ) {
        let n = block_edge_count(pick, m);
        let (ubm, frames) = random_mixture_and_frames(seed, k, n);
        let oracle = mixture_bits(&map_adapt_oracle(&ubm, &frames, relevance));
        prop_assert_eq!(&mixture_bits(&ubm.map_adapt_means(&frames, relevance)), &oracle);
        // Three parts, one possibly empty, as enrollment utterances.
        let a = cut % (n + 1);
        let parts = [&frames[..a], &frames[a..a], &frames[a..]];
        let resp: Vec<_> = parts.iter().map(|p| ubm.responsibility_matrix(*p)).collect();
        let shared = ubm.map_adapt_means_with(parts.iter().copied().zip(&resp), relevance);
        prop_assert_eq!(&mixture_bits(&shared), &oracle);
    }

    /// Two EM iterations of `train` are bit-identical to the same
    /// iterations with a per-frame E step, from the same k-means start.
    #[test]
    fn em_training_is_bit_identical_to_per_frame(
        seed in 0u64..10_000,
        k in 1usize..6,
        pick in 0usize..6,
        m in 1usize..140,
    ) {
        let n = block_edge_count(pick, m).max(k);
        let (_, data) = random_mixture_and_frames(seed, k, n);
        let rng = SimRng::from_seed(seed ^ 0xE11);
        let init = DiagonalGmm::train(&data, k, 0, 0.0, &rng);
        let trained = DiagonalGmm::train(&data, k, 2, 0.0, &rng);
        prop_assert_eq!(mixture_bits(&trained), mixture_bits(&em_oracle(&init, &data, 2)));
    }

    /// The batched mean log-likelihood is bit-identical to averaging the
    /// per-frame `log_pdf`, and reuses one scratch across frame sets.
    #[test]
    fn mean_log_likelihood_is_bit_identical_to_per_frame(
        seed in 0u64..10_000,
        k in 1usize..6,
        pick in 0usize..6,
        m in 1usize..140,
    ) {
        let n = block_edge_count(pick, m);
        let (gmm, frames) = random_mixture_and_frames(seed, k, n);
        let prepared = PreparedGmm::new(&gmm);
        let mut buf = Vec::new();
        let oracle = if n == 0 {
            f64::NEG_INFINITY
        } else {
            let mut sum = 0.0;
            for x in &frames {
                sum += prepared.log_pdf(x, &mut buf);
            }
            sum / n as f64
        };
        let mut scratch = ScoreScratch::new();
        for _ in 0..2 {
            let got = prepared.mean_log_likelihood(&frames, &mut scratch);
            prop_assert_eq!(got.to_bits(), oracle.to_bits(), "batched {} vs per-frame {}", got, oracle);
        }
    }

    /// On data full of duplicated points (so distances tie), k-means
    /// assigns each point to the first nearest centre, exactly as
    /// `(0..k).min_by(partial_cmp)` picks it. The final centres are the
    /// ones the last assignment saw when the run converged, or when every
    /// centre coincides (one distinct point: empty clusters are reseeded
    /// onto it on every iteration).
    #[test]
    fn kmeans_assignment_keeps_the_first_minimum(
        seed in 0u64..10_000,
        k in 1usize..6,
        n in 8usize..40,
        grid in 1usize..4,
    ) {
        let mut r = SimRng::from_seed(seed);
        let data: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![r.index(grid) as f64, r.index(grid) as f64])
            .collect();
        let res = kmeans(&data, k, 100, &SimRng::from_seed(seed ^ 0x4B));
        prop_assume!(res.iterations < 100 || res.centers.windows(2).all(|w| w[0] == w[1]));
        let dist2 = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
        };
        for (p, &got) in data.iter().zip(&res.assignments) {
            let want = (0..k)
                .min_by(|&a, &b| {
                    dist2(p, &res.centers[a])
                        .partial_cmp(&dist2(p, &res.centers[b]))
                        .unwrap_or(Ordering::Equal)
                })
                .unwrap();
            prop_assert_eq!(got, want);
        }
    }
}
