//! Diagonal-covariance Gaussian mixture models with EM training and MAP
//! adaptation.
//!
//! This is the statistical engine of the GMM–UBM speaker verifier the
//! paper uses through Spear (§IV-C): a large *universal background model*
//! (UBM) is EM-trained on many speakers; each enrolled speaker is a
//! MAP-adapted copy of the UBM (Reynolds-style relevance adaptation of the
//! means); verification scores are the average per-frame log-likelihood
//! ratio between the speaker model and the UBM.

use crate::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};
use crate::kmeans::kmeans;
use magshield_dsp::frame::FrameSource;
use magshield_simkit::rng::SimRng;

const LOG_2PI: f64 = 1.8378770664093453; // ln(2π)

/// Minimum variance floor to keep components from collapsing.
const VAR_FLOOR: f64 = 1e-4;

/// A diagonal-covariance Gaussian mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagonalGmm {
    /// Mixture weights (sum to 1).
    weights: Vec<f64>,
    /// Component means, `k × dim`.
    means: Vec<Vec<f64>>,
    /// Component variances, `k × dim`.
    variances: Vec<Vec<f64>>,
}

impl DiagonalGmm {
    /// Builds a GMM from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent, weights do not sum to ~1, or any
    /// variance is non-positive.
    pub fn from_parameters(
        weights: Vec<f64>,
        means: Vec<Vec<f64>>,
        variances: Vec<Vec<f64>>,
    ) -> Self {
        let k = weights.len();
        assert!(k > 0, "mixture needs at least one component");
        assert_eq!(means.len(), k, "means/weights length mismatch");
        assert_eq!(variances.len(), k, "variances/weights length mismatch");
        let dim = means[0].len();
        assert!(
            means.iter().all(|m| m.len() == dim) && variances.iter().all(|v| v.len() == dim),
            "inconsistent dimensions"
        );
        let wsum: f64 = weights.iter().sum();
        assert!(
            (wsum - 1.0).abs() < 1e-6,
            "weights must sum to 1, got {wsum}"
        );
        assert!(
            variances.iter().flatten().all(|&v| v > 0.0),
            "variances must be positive"
        );
        Self {
            weights,
            means,
            variances,
        }
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.weights.len()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.means[0].len()
    }

    /// Mixture weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Component means.
    pub fn means(&self) -> &[Vec<f64>] {
        &self.means
    }

    /// Component variances.
    pub fn variances(&self) -> &[Vec<f64>] {
        &self.variances
    }

    /// Log density of one frame under component `c` — the reference
    /// arithmetic that [`Self::responsibility_matrix`] reproduces lane by
    /// lane.
    fn component_log_pdf(&self, c: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for ((&m, &v), &xi) in self.means[c].iter().zip(&self.variances[c]).zip(x) {
            acc += -0.5 * (LOG_2PI + v.ln() + (xi - m) * (xi - m) / v);
        }
        acc
    }

    /// Natural log of each mixture weight (floored at 1e-300), written into
    /// a caller-owned buffer so bulk callers compute them once instead of
    /// once per frame.
    pub fn log_weights_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.weights.iter().map(|w| w.max(1e-300).ln()));
    }

    /// Log density of one frame under the full mixture (log-sum-exp).
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        let logs: Vec<f64> = (0..self.num_components())
            .map(|c| self.weights[c].max(1e-300).ln() + self.component_log_pdf(c, x))
            .collect();
        log_sum_exp(&logs)
    }

    /// Posterior responsibilities of each component for one frame.
    ///
    /// This is the per-frame reference (the test oracle) for
    /// [`Self::responsibility_matrix`], which every training and
    /// enrollment pass runs.
    pub fn responsibilities(&self, x: &[f64]) -> Vec<f64> {
        let logs: Vec<f64> = (0..self.num_components())
            .map(|c| self.weights[c].max(1e-300).ln() + self.component_log_pdf(c, x))
            .collect();
        let total = log_sum_exp(&logs);
        logs.iter().map(|l| (l - total).exp()).collect()
    }

    /// [`Self::responsibilities`] of every frame, as a frame-major `n × k`
    /// matrix, together with each frame's mixture log-likelihood.
    ///
    /// Frames are scored [`FRAME_BLOCK`] at a time per component pass on
    /// the transposed block. `ln 2π + ln v` is computed once per model:
    /// the per-frame `component_log_pdf` evaluates that sum first, so
    /// hoisting it changes no rounding, and each lane then accumulates
    /// `−½ (ln 2π + ln v + (x − μ)² / v)` in ascending dimension order.
    /// Every row is therefore bit-identical to the per-frame reference.
    pub fn responsibility_matrix<F: FrameSource + ?Sized>(&self, frames: &F) -> Responsibilities {
        let (k, dim, n) = (self.num_components(), self.dim(), frames.num_frames());
        let mut log_w = Vec::with_capacity(k);
        self.log_weights_into(&mut log_w);
        let norm: Vec<f64> = self
            .variances
            .iter()
            .flatten()
            .map(|v| LOG_2PI + v.ln())
            .collect();
        let mut post = vec![0.0; n * k];
        let mut xt = Vec::new();
        let mut start = 0;
        while start < n {
            let count = FRAME_BLOCK.min(n - start);
            transpose_block(frames, start, count, dim, &mut xt);
            for c in 0..k {
                let lanes = block_log_pdf(
                    &xt,
                    &self.means[c],
                    &self.variances[c],
                    &norm[c * dim..(c + 1) * dim],
                );
                for (bi, &l) in lanes.iter().enumerate().take(count) {
                    post[(start + bi) * k + c] = log_w[c] + l;
                }
            }
            start += count;
        }
        let mut log_lik = Vec::with_capacity(n);
        for row in post.chunks_exact_mut(k) {
            let total = log_sum_exp(row);
            for l in row.iter_mut() {
                *l = (*l - total).exp();
            }
            log_lik.push(total);
        }
        Responsibilities { k, post, log_lik }
    }

    /// Trains a GMM with `k` components on `data` via k-means init + EM.
    ///
    /// Stops after `max_iters` or when the mean log-likelihood improves by
    /// less than `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() < k` or rows are inconsistent.
    pub fn train(data: &[Vec<f64>], k: usize, max_iters: usize, tol: f64, rng: &SimRng) -> Self {
        assert!(data.len() >= k, "need at least k frames to train");
        let dim = data[0].len();
        let km = kmeans(data, k, 25, &rng.fork("gmm-init"));

        // Initialize from k-means clusters.
        let mut counts = vec![0usize; k];
        let means = km.centers.clone();
        let mut variances = vec![vec![0.0; dim]; k];
        for (p, &a) in data.iter().zip(&km.assignments) {
            counts[a] += 1;
            for d in 0..dim {
                variances[a][d] += (p[d] - means[a][d]).powi(2);
            }
        }
        // Global variance fallback for tiny clusters.
        let gmean: Vec<f64> = (0..dim)
            .map(|d| data.iter().map(|p| p[d]).sum::<f64>() / data.len() as f64)
            .collect();
        let gvar: Vec<f64> = (0..dim)
            .map(|d| {
                (data.iter().map(|p| (p[d] - gmean[d]).powi(2)).sum::<f64>() / data.len() as f64)
                    .max(VAR_FLOOR)
            })
            .collect();
        let mut weights = vec![0.0; k];
        for c in 0..k {
            weights[c] = (counts[c] as f64 / data.len() as f64).max(1e-6);
            if counts[c] > 1 {
                for d in 0..dim {
                    variances[c][d] = (variances[c][d] / counts[c] as f64).max(VAR_FLOOR);
                }
            } else {
                variances[c] = gvar.clone();
            }
        }
        let wsum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= wsum;
        }
        let mut gmm = Self {
            weights,
            means,
            variances,
        };

        // EM iterations. The E step reads the responsibility matrix one
        // bounded chunk of frames at a time and accumulates in frame order.
        let mut prev_ll = f64::NEG_INFINITY;
        for _ in 0..max_iters {
            let mut nk = vec![0.0; k];
            let mut sum = vec![vec![0.0; dim]; k];
            let mut sumsq = vec![vec![0.0; dim]; k];
            let mut ll = 0.0;
            for chunk in data.chunks(EM_CHUNK) {
                let resp = gmm.responsibility_matrix(chunk);
                for (i, x) in chunk.iter().enumerate() {
                    ll += resp.log_lik[i];
                    for (c, &r) in resp.row(i).iter().enumerate() {
                        nk[c] += r;
                        for ((s, sq), &xd) in sum[c].iter_mut().zip(&mut sumsq[c]).zip(x) {
                            *s += r * xd;
                            *sq += r * xd * xd;
                        }
                    }
                }
            }
            ll /= data.len() as f64;
            for c in 0..k {
                if nk[c] < 1e-8 {
                    continue; // leave starved component untouched
                }
                gmm.weights[c] = nk[c] / data.len() as f64;
                for d in 0..dim {
                    let m = sum[c][d] / nk[c];
                    gmm.means[c][d] = m;
                    gmm.variances[c][d] = (sumsq[c][d] / nk[c] - m * m).max(VAR_FLOOR);
                }
            }
            let wsum: f64 = gmm.weights.iter().sum();
            for w in &mut gmm.weights {
                *w /= wsum;
            }
            if (ll - prev_ll).abs() < tol {
                break;
            }
            prev_ll = ll;
        }
        gmm
    }

    /// Reynolds MAP adaptation of the means toward `data`, with relevance
    /// factor `r` (typically 16): components with more evidence move
    /// further toward the data.
    ///
    /// Returns the adapted model; weights and variances are kept from the
    /// prior (standard practice for speaker adaptation).
    pub fn map_adapt_means<F: FrameSource + ?Sized>(&self, data: &F, relevance: f64) -> Self {
        let resp = self.responsibility_matrix(data);
        self.map_adapt_means_with([(data, &resp)], relevance)
    }

    /// [`Self::map_adapt_means`] toward several frame sets taken in order,
    /// as if concatenated, each with its responsibilities under `self`
    /// already computed by [`Self::responsibility_matrix`]. Enrollment
    /// computes each utterance's matrix once and adapts both the full model
    /// and every leave-one-out model from it.
    ///
    /// # Panics
    ///
    /// Panics if a matrix does not match its frames or this mixture.
    pub fn map_adapt_means_with<'a, F: FrameSource + ?Sized + 'a>(
        &self,
        parts: impl IntoIterator<Item = (&'a F, &'a Responsibilities)>,
        relevance: f64,
    ) -> Self {
        let k = self.num_components();
        let dim = self.dim();
        let mut nk = vec![0.0; k];
        let mut sum = vec![vec![0.0; dim]; k];
        for (frames, resp) in parts {
            assert!(
                resp.k == k && resp.num_frames() == frames.num_frames(),
                "responsibilities do not match the frames"
            );
            for i in 0..frames.num_frames() {
                let x = frames.frame(i);
                for (c, &r) in resp.row(i).iter().enumerate() {
                    nk[c] += r;
                    for (s, &xd) in sum[c].iter_mut().zip(x) {
                        *s += r * xd;
                    }
                }
            }
        }
        let mut adapted = self.clone();
        for c in 0..k {
            if nk[c] < 1e-10 {
                continue;
            }
            let alpha = nk[c] / (nk[c] + relevance);
            for d in 0..dim {
                let ex = sum[c][d] / nk[c];
                adapted.means[c][d] = alpha * ex + (1.0 - alpha) * self.means[c][d];
            }
        }
        adapted
    }

    /// Average per-frame log-likelihood ratio of `frames` between `self`
    /// (speaker model) and `background` (UBM) — the verification score.
    ///
    /// This is the reference scorer; the fast path is
    /// [`llr_score_prepared`]. Both accept either frame layout.
    pub fn llr_score<F: FrameSource + ?Sized>(&self, background: &DiagonalGmm, frames: &F) -> f64 {
        let n = frames.num_frames();
        if n == 0 {
            return f64::NEG_INFINITY;
        }
        let (ks, kb) = (self.num_components(), background.num_components());
        let mut log_ws = Vec::with_capacity(ks);
        let mut log_wb = Vec::with_capacity(kb);
        self.log_weights_into(&mut log_ws);
        background.log_weights_into(&mut log_wb);
        let mut logs_s = vec![0.0; ks];
        let mut logs_b = vec![0.0; kb];
        let mut sum = 0.0;
        for i in 0..n {
            let x = frames.frame(i);
            for c in 0..ks {
                logs_s[c] = log_ws[c] + self.component_log_pdf(c, x);
            }
            for c in 0..kb {
                logs_b[c] = log_wb[c] + background.component_log_pdf(c, x);
            }
            sum += log_sum_exp(&logs_s) - log_sum_exp(&logs_b);
        }
        sum / n as f64
    }
}

/// Numerically stable log(Σ exp(x_i)).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

/// A [`DiagonalGmm`] flattened for scoring: per-component constants folded
/// once at construction so the per-frame inner loop is a fused
/// multiply-accumulate over contiguous memory.
///
/// For component `c`, `log_const[c] = ln w_c − ½ Σ_d (ln 2π + ln v_cd)` and
/// the weighted log-density of frame `x` is
/// `log_const[c] − ½ Σ_d (x_d − μ_cd)² · v⁻¹_cd`.
///
/// Folding the constants reorders the reference arithmetic, so prepared
/// scores match [`DiagonalGmm::log_pdf`] to a 1e-9 tolerance rather than
/// bitwise (the contract pinned by the regression tests).
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedGmm {
    k: usize,
    dim: usize,
    /// Folded log-weight + normalization per component.
    log_const: Vec<f64>,
    /// Component means, flat `k × dim`.
    means: Vec<f64>,
    /// Inverse variances, flat `k × dim`.
    inv_var: Vec<f64>,
}

impl PreparedGmm {
    /// Precomputes scoring constants from a mixture.
    pub fn new(gmm: &DiagonalGmm) -> Self {
        let (k, dim) = (gmm.num_components(), gmm.dim());
        let log_const = (0..k)
            .map(|c| {
                let norm: f64 = gmm.variances[c].iter().map(|v| LOG_2PI + v.ln()).sum();
                gmm.weights[c].max(1e-300).ln() - 0.5 * norm
            })
            .collect();
        let means = gmm.means.iter().flatten().copied().collect();
        let inv_var = gmm.variances.iter().flatten().map(|v| 1.0 / v).collect();
        Self {
            k,
            dim,
            log_const,
            means,
            inv_var,
        }
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.k
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Weighted log-density of `x` under component `c`
    /// (`ln w_c + ln N_c(x)`).
    #[inline]
    pub fn weighted_component_ll(&self, c: usize, x: &[f64]) -> f64 {
        let base = c * self.dim;
        let m = &self.means[base..base + self.dim];
        let iv = &self.inv_var[base..base + self.dim];
        let mut quad = 0.0;
        for ((&xi, &mi), &ivi) in x.iter().zip(m).zip(iv) {
            let d = xi - mi;
            quad += d * d * ivi;
        }
        self.log_const[c] - 0.5 * quad
    }

    /// Weighted log-densities of `x` under every component, into a
    /// caller-owned buffer.
    pub fn weighted_log_pdfs_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.k).map(|c| self.weighted_component_ll(c, x)));
    }

    /// Log density of one frame under the full mixture, using `buf` as
    /// scratch. Matches [`DiagonalGmm::log_pdf`] to 1e-9.
    ///
    /// The per-frame reference (the test oracle) for
    /// [`Self::mean_log_likelihood`].
    pub fn log_pdf(&self, x: &[f64], buf: &mut Vec<f64>) -> f64 {
        self.weighted_log_pdfs_into(x, buf);
        log_sum_exp(buf)
    }

    /// Mean per-frame log-likelihood over `frames`, with buffers from
    /// `scratch`.
    ///
    /// Frames run through the batched verification kernel
    /// (`weighted_block_ll`, as in [`llr_score_prepared`]), then one
    /// log-sum-exp per row, summed in frame order. Per lane that
    /// is the arithmetic of [`Self::log_pdf`], so the mean is bit-identical
    /// to averaging it.
    pub fn mean_log_likelihood<F: FrameSource + ?Sized>(
        &self,
        frames: &F,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        let n = frames.num_frames();
        if n == 0 {
            return f64::NEG_INFINITY;
        }
        let ScoreScratch { ubm_block, xt, .. } = scratch;
        let mut sum = 0.0;
        let mut start = 0;
        while start < n {
            let count = FRAME_BLOCK.min(n - start);
            transpose_block(frames, start, count, self.dim, xt);
            self.weighted_block_ll(xt, count, ubm_block);
            for row in ubm_block.chunks_exact(self.k) {
                sum += log_sum_exp(row);
            }
            start += count;
        }
        sum / n as f64
    }

    /// Weighted log-densities of a transposed frame block under every
    /// component, component-outer / frame-inner, written frame-major into
    /// `out[bi * k + c]`.
    ///
    /// `xt` is the dimension-major block laid out by [`transpose_block`];
    /// per lane the arithmetic matches [`Self::weighted_component_ll`]
    /// bit for bit (see [`block_quad`]), so batching reorders nothing a
    /// frame can observe.
    fn weighted_block_ll(&self, xt: &[f64], count: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(count * self.k, 0.0);
        for c in 0..self.k {
            let base = c * self.dim;
            let m = &self.means[base..base + self.dim];
            let iv = &self.inv_var[base..base + self.dim];
            let quad = block_quad(xt, m, iv);
            let lc = self.log_const[c];
            for (bi, &q) in quad.iter().enumerate().take(count) {
                out[bi * self.k + c] = lc - 0.5 * q;
            }
        }
    }
}

/// Frames scored per component pass by the batched LLR kernels.
///
/// Eight frames give eight independent accumulator chains per component
/// — enough to hide the floating-point add latency that serializes the
/// one-frame-at-a-time quadratic-form loop — while the transposed block
/// (`dim × 8` doubles) stays well inside L1.
pub const FRAME_BLOCK: usize = 8;

/// Frames per E-step chunk of [`DiagonalGmm::train`]: bounds the
/// responsibility matrix a UBM training pass holds (`EM_CHUNK × k`). The
/// chunking moves no bit, since every row is computed independently and
/// the statistics accumulate in frame order across chunks.
const EM_CHUNK: usize = 1024;

/// Frame-major posteriors of a frame set under one mixture, from
/// [`DiagonalGmm::responsibility_matrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct Responsibilities {
    k: usize,
    /// Responsibilities, `n × k`, row `i` for frame `i`.
    post: Vec<f64>,
    /// Mixture log-likelihood of each frame (the row's log-sum-exp).
    log_lik: Vec<f64>,
}

impl Responsibilities {
    /// Frames covered.
    pub fn num_frames(&self) -> usize {
        self.log_lik.len()
    }

    /// Responsibilities of every component for frame `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.post[i * self.k..(i + 1) * self.k]
    }

    /// Mixture log-likelihood of each frame, in frame order.
    pub fn log_likelihoods(&self) -> &[f64] {
        &self.log_lik
    }
}

/// One component's reference log-densities over a transposed frame block:
/// for each of the [`FRAME_BLOCK`] lanes, `Σ_d −½ (norm_d + (x_d − μ_d)² / v_d)`
/// accumulated in ascending-`d` order with `norm_d = ln 2π + ln v_d`. That
/// is the operation sequence of [`DiagonalGmm::component_log_pdf`], so each
/// lane is bit-identical to it.
#[inline]
fn block_log_pdf(xt: &[f64], m: &[f64], v: &[f64], norm: &[f64]) -> [f64; FRAME_BLOCK] {
    let mut acc = [0.0f64; FRAME_BLOCK];
    for (col, ((&mi, &vi), &ni)) in xt.chunks_exact(FRAME_BLOCK).zip(m.iter().zip(v).zip(norm)) {
        for (a, &xi) in acc.iter_mut().zip(col) {
            *a += -0.5 * (ni + (xi - mi) * (xi - mi) / vi);
        }
    }
    acc
}

/// Reusable buffers for [`llr_score_prepared`]. One per scoring thread.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    /// Frame-major UBM weighted log-densities for one block (`nb × k`);
    /// the mixture's own when [`PreparedGmm::mean_log_likelihood`] runs.
    ubm_block: Vec<f64>,
    /// Frame-major speaker weighted log-densities (exact mode, `nb × k`).
    spk_block: Vec<f64>,
    /// Per-frame speaker densities under the top-C pruned components.
    spk_ll: Vec<f64>,
    /// Transposed frame block, dimension-major (`dim × FRAME_BLOCK`).
    xt: Vec<f64>,
    top: Vec<usize>,
}

impl ScoreScratch {
    /// A fresh scratch with no reserved memory.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Transposes frames `start..start + count` into the dimension-major block
/// buffer (`xt[d * FRAME_BLOCK + bi]`), zero-padding the unused tail lanes
/// so the kernels always run full-width.
fn transpose_block<F: FrameSource + ?Sized>(
    frames: &F,
    start: usize,
    count: usize,
    dim: usize,
    xt: &mut Vec<f64>,
) {
    debug_assert!(count <= FRAME_BLOCK);
    xt.clear();
    xt.resize(dim * FRAME_BLOCK, 0.0);
    for bi in 0..count {
        let x = frames.frame(start + bi);
        for d in 0..dim {
            xt[d * FRAME_BLOCK + bi] = x[d];
        }
    }
}

/// One component's quadratic forms over a transposed frame block: for each
/// of the [`FRAME_BLOCK`] lanes, `quad[bi] = Σ_d (x_d − μ_d)² · v⁻¹_d`
/// accumulated in ascending-`d` order — the exact operation sequence of
/// the one-frame [`PreparedGmm::weighted_component_ll`] loop, so each lane
/// is bit-identical to the sequential path. The eight lanes are
/// independent, which is what lets the compiler vectorize the loop.
#[inline]
fn block_quad(xt: &[f64], m: &[f64], iv: &[f64]) -> [f64; FRAME_BLOCK] {
    let mut quad = [0.0f64; FRAME_BLOCK];
    for (col, (&mi, &ivi)) in xt.chunks_exact(FRAME_BLOCK).zip(m.iter().zip(iv)) {
        for (q, &xi) in quad.iter_mut().zip(col) {
            let di = xi - mi;
            *q += di * di * ivi;
        }
    }
    quad
}

/// What [`llr_score_prepared`] computed, beyond the score itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlrBreakdown {
    /// Average per-frame log-likelihood ratio (the verification score).
    pub score: f64,
    /// Frames scored.
    pub frames: usize,
    /// Speaker-side component evaluations skipped by top-C pruning, summed
    /// over frames.
    pub pruned_components: u64,
    /// Speaker-side component evaluations actually performed.
    pub evaluated_components: u64,
}

/// Fast-path GMM–UBM verification score with optional top-C Gaussian
/// pruning.
///
/// Per frame, all UBM components are evaluated and the UBM term of the
/// ratio is the exact log-sum-exp. With `top_c` in `1..k`, the speaker
/// model is evaluated only on the `top_c` UBM components with the highest
/// weighted log-density for that frame — the standard GMM–UBM top-C
/// approximation (the MAP-adapted speaker model shares the UBM's mixture
/// structure, so the UBM's best components dominate the speaker-side sum
/// too). `top_c == 0` or `top_c >= k` evaluates every component, which
/// matches [`DiagonalGmm::llr_score`] to the prepared-constant tolerance
/// (1e-9, see [`PreparedGmm`]).
///
/// # Panics
///
/// Panics if the two mixtures disagree in component count or dimension.
pub fn llr_score_prepared<F: FrameSource + ?Sized>(
    speaker: &PreparedGmm,
    ubm: &PreparedGmm,
    frames: &F,
    top_c: usize,
    scratch: &mut ScoreScratch,
) -> LlrBreakdown {
    assert_eq!(speaker.k, ubm.k, "speaker/UBM component count mismatch");
    assert_eq!(speaker.dim, ubm.dim, "speaker/UBM dimension mismatch");
    let n = frames.num_frames();
    if n == 0 {
        return LlrBreakdown {
            score: f64::NEG_INFINITY,
            frames: 0,
            pruned_components: 0,
            evaluated_components: 0,
        };
    }
    let k = ubm.k;
    let dim = ubm.dim;
    let c_eff = if top_c == 0 || top_c >= k { k } else { top_c };
    let ScoreScratch {
        ubm_block,
        spk_block,
        spk_ll,
        xt,
        top,
    } = scratch;
    let mut sum = 0.0;
    let mut pruned = 0u64;
    let mut evaluated = 0u64;
    let mut start = 0;
    while start < n {
        let count = FRAME_BLOCK.min(n - start);
        transpose_block(frames, start, count, dim, xt);
        ubm.weighted_block_ll(xt, count, ubm_block);
        if c_eff == k {
            speaker.weighted_block_ll(xt, count, spk_block);
            evaluated += (count * k) as u64;
            for bi in 0..count {
                let row = bi * k;
                sum +=
                    log_sum_exp(&spk_block[row..row + k]) - log_sum_exp(&ubm_block[row..row + k]);
            }
        } else {
            for bi in 0..count {
                let x = frames.frame(start + bi);
                let ubm_ll = &ubm_block[bi * k..(bi + 1) * k];
                top.clear();
                top.extend(0..k);
                top.select_nth_unstable_by(c_eff - 1, |&a, &b| ubm_ll[b].total_cmp(&ubm_ll[a]));
                spk_ll.clear();
                spk_ll.extend(
                    top[..c_eff]
                        .iter()
                        .map(|&c| speaker.weighted_component_ll(c, x)),
                );
                evaluated += c_eff as u64;
                pruned += (k - c_eff) as u64;
                sum += log_sum_exp(spk_ll) - log_sum_exp(ubm_ll);
            }
        }
        start += count;
    }
    LlrBreakdown {
        score: sum / n as f64,
        frames: n,
        pruned_components: pruned,
        evaluated_components: evaluated,
    }
}

/// The one-frame-at-a-time scorer [`llr_score_prepared`] replaced,
/// retained as the bit-identity oracle for the batched kernel: per frame
/// it evaluates every component with [`PreparedGmm::weighted_component_ll`]
/// and sums ratios in frame order, exactly the operation sequence the
/// frame-major path reproduces lane by lane.
pub fn llr_score_sequential<F: FrameSource + ?Sized>(
    speaker: &PreparedGmm,
    ubm: &PreparedGmm,
    frames: &F,
    top_c: usize,
    scratch: &mut ScoreScratch,
) -> LlrBreakdown {
    assert_eq!(speaker.k, ubm.k, "speaker/UBM component count mismatch");
    assert_eq!(speaker.dim, ubm.dim, "speaker/UBM dimension mismatch");
    let n = frames.num_frames();
    if n == 0 {
        return LlrBreakdown {
            score: f64::NEG_INFINITY,
            frames: 0,
            pruned_components: 0,
            evaluated_components: 0,
        };
    }
    let k = ubm.k;
    let ScoreScratch {
        ubm_block: ubm_ll,
        spk_ll,
        top,
        ..
    } = scratch;
    let c_eff = if top_c == 0 || top_c >= k { k } else { top_c };
    let mut sum = 0.0;
    let mut pruned = 0u64;
    let mut evaluated = 0u64;
    for i in 0..n {
        let x = frames.frame(i);
        ubm.weighted_log_pdfs_into(x, ubm_ll);
        let ubm_total = log_sum_exp(ubm_ll);
        let spk_total = if c_eff == k {
            speaker.weighted_log_pdfs_into(x, spk_ll);
            evaluated += k as u64;
            log_sum_exp(spk_ll)
        } else {
            top.clear();
            top.extend(0..k);
            top.select_nth_unstable_by(c_eff - 1, |&a, &b| ubm_ll[b].total_cmp(&ubm_ll[a]));
            spk_ll.clear();
            spk_ll.extend(
                top[..c_eff]
                    .iter()
                    .map(|&c| speaker.weighted_component_ll(c, x)),
            );
            evaluated += c_eff as u64;
            pruned += (k - c_eff) as u64;
            log_sum_exp(spk_ll)
        };
        sum += spk_total - ubm_total;
    }
    LlrBreakdown {
        score: sum / n as f64,
        frames: n,
        pruned_components: pruned,
        evaluated_components: evaluated,
    }
}

/// A [`PreparedGmm`] with means quantized to `i16` against one `f32`
/// dequantization step per component and inverse variances rounded to
/// `f32` — a quarter of the exact model's memory traffic on the scoring
/// hot loop, and a quarter of its artifact size on the wire.
///
/// `log_const` stays `f64` (it is `k` values, not `k × dim`, and folding
/// it exactly keeps the quantization error confined to the quadratic
/// form). The score drift this introduces is bounded, not just observed:
/// [`llr_drift_bound`] computes a sound per-utterance bound from the
/// stored rounding errors, and the property tests assert scores stay
/// inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedGmm {
    k: usize,
    dim: usize,
    /// Folded log-weight + normalization per component, kept exact.
    log_const: Vec<f64>,
    /// Quantized means, flat `k × dim`: `mean ≈ q · scale[c]`.
    means_q: Vec<i16>,
    /// Per-component dequantization step.
    scale: Vec<f32>,
    /// Inverse variances rounded to `f32`, flat `k × dim`.
    inv_var: Vec<f32>,
}

impl QuantizedGmm {
    /// Quantizes a prepared mixture: per component, the step is the
    /// largest absolute mean divided by `i16::MAX`, so every mean lands
    /// within half a step of its exact value.
    pub fn from_prepared(p: &PreparedGmm) -> Self {
        let mut means_q = Vec::with_capacity(p.means.len());
        let mut scale = Vec::with_capacity(p.k);
        for c in 0..p.k {
            let row = &p.means[c * p.dim..(c + 1) * p.dim];
            let peak = row.iter().fold(0.0f64, |a, &m| a.max(m.abs()));
            let s = if peak > 0.0 {
                ((peak / i16::MAX as f64) as f32).max(f32::MIN_POSITIVE)
            } else {
                1.0
            };
            scale.push(s);
            // Round against the exact step used at dequantization time
            // (the f32 value widened back), so the stored error is the
            // true round-trip error.
            let sd = s as f64;
            means_q.extend(
                row.iter()
                    .map(|&m| (m / sd).round().clamp(i16::MIN as f64, i16::MAX as f64) as i16),
            );
        }
        // Clamp the narrowing into f32's positive finite range so extreme
        // (but valid) f64 inverse variances cannot round to 0 or ∞.
        let inv_var = p
            .inv_var
            .iter()
            .map(|&v| (v as f32).clamp(f32::MIN_POSITIVE, f32::MAX))
            .collect();
        Self {
            k: p.k,
            dim: p.dim,
            log_const: p.log_const.clone(),
            means_q,
            scale,
            inv_var,
        }
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.k
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Dequantized mean of component `c`, dimension `d`.
    #[inline]
    pub fn mean(&self, c: usize, d: usize) -> f64 {
        self.means_q[c * self.dim + d] as f64 * self.scale[c] as f64
    }

    /// Inverse variance of component `c`, dimension `d`, widened to `f64`.
    #[inline]
    pub fn inv_var(&self, c: usize, d: usize) -> f64 {
        self.inv_var[c * self.dim + d] as f64
    }

    /// Weighted log-density of `x` under component `c`, dequantizing on
    /// the fly — the quantized counterpart of
    /// [`PreparedGmm::weighted_component_ll`].
    #[inline]
    pub fn weighted_component_ll(&self, c: usize, x: &[f64]) -> f64 {
        let base = c * self.dim;
        let mq = &self.means_q[base..base + self.dim];
        let iv = &self.inv_var[base..base + self.dim];
        let s = self.scale[c] as f64;
        let mut quad = 0.0;
        for ((&xi, &qi), &ivi) in x.iter().zip(mq).zip(iv) {
            let d = xi - qi as f64 * s;
            quad += d * d * ivi as f64;
        }
        self.log_const[c] - 0.5 * quad
    }

    /// Frame-major weighted log-densities of a transposed block under
    /// every component; the quantized counterpart of
    /// [`PreparedGmm::weighted_block_ll`]. The lane arithmetic matches
    /// [`Self::weighted_component_ll`] per frame.
    fn weighted_block_ll(&self, xt: &[f64], count: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(count * self.k, 0.0);
        for c in 0..self.k {
            let base = c * self.dim;
            let mq = &self.means_q[base..base + self.dim];
            let iv = &self.inv_var[base..base + self.dim];
            let s = self.scale[c] as f64;
            let mut quad = [0.0f64; FRAME_BLOCK];
            for (col, (&qi, &ivi)) in xt.chunks_exact(FRAME_BLOCK).zip(mq.iter().zip(iv)) {
                let mi = qi as f64 * s;
                let ivf = ivi as f64;
                for (q, &xi) in quad.iter_mut().zip(col) {
                    let di = xi - mi;
                    *q += di * di * ivf;
                }
            }
            let lc = self.log_const[c];
            for (bi, &q) in quad.iter().enumerate().take(count) {
                out[bi * self.k + c] = lc - 0.5 * q;
            }
        }
    }
}

/// Sound bound on `|llr_quantized − llr_exact|` for any utterance whose
/// feature values satisfy `|x_d| ≤ x_abs_max`.
///
/// Per component `c` and dimension `d`, write the exact parameters
/// `m, v⁻¹` and their quantized counterparts `m̂, v̂⁻¹`. With
/// `A = (x−m)²` and `B = (x−m̂)²`,
///
/// ```text
/// |B·v̂⁻¹ − A·v⁻¹| ≤ |B − A|·v̂⁻¹ + A·|v̂⁻¹ − v⁻¹|
/// |B − A| = |m − m̂| · |2x − m − m̂| ≤ |m − m̂|·(2·x_max + |m| + |m̂|)
/// A ≤ (x_max + |m|)²
/// ```
///
/// summed over `d` and halved this bounds each component's weighted
/// log-density drift (`log_const` is copied exactly); `log_sum_exp` is
/// 1-Lipschitz in the sup norm, so the per-frame LLR drifts by at most
/// the speaker-side and UBM-side maxima combined, and the mean over
/// frames by no more.
pub fn llr_drift_bound(
    speaker_exact: &PreparedGmm,
    speaker_q: &QuantizedGmm,
    ubm_exact: &PreparedGmm,
    ubm_q: &QuantizedGmm,
    x_abs_max: f64,
) -> f64 {
    component_drift_bound(speaker_exact, speaker_q, x_abs_max)
        + component_drift_bound(ubm_exact, ubm_q, x_abs_max)
}

/// Max over components of the weighted log-density drift bound; see
/// [`llr_drift_bound`].
fn component_drift_bound(exact: &PreparedGmm, quant: &QuantizedGmm, x_abs_max: f64) -> f64 {
    assert_eq!(exact.k, quant.k, "exact/quantized component count mismatch");
    assert_eq!(exact.dim, quant.dim, "exact/quantized dimension mismatch");
    let mut worst = 0.0f64;
    for c in 0..exact.k {
        let mut acc = 0.0;
        for d in 0..exact.dim {
            let m = exact.means[c * exact.dim + d];
            let mh = quant.mean(c, d);
            let iv = exact.inv_var[c * exact.dim + d];
            let ivh = quant.inv_var(c, d);
            let em = (m - mh).abs();
            let reach = x_abs_max + m.abs();
            acc += em * (2.0 * x_abs_max + m.abs() + mh.abs()) * ivh
                + reach * reach * (iv - ivh).abs();
        }
        worst = worst.max(0.5 * acc);
    }
    worst
}

/// [`llr_score_prepared`] over quantized mixtures: identical batched
/// structure (frame-major blocks, exact UBM log-sum-exp, top-C speaker
/// pruning selected on the quantized UBM densities), with means and
/// inverse variances dequantized on the fly inside the component pass.
///
/// # Panics
///
/// Panics if the two mixtures disagree in component count or dimension.
pub fn llr_score_quantized<F: FrameSource + ?Sized>(
    speaker: &QuantizedGmm,
    ubm: &QuantizedGmm,
    frames: &F,
    top_c: usize,
    scratch: &mut ScoreScratch,
) -> LlrBreakdown {
    assert_eq!(speaker.k, ubm.k, "speaker/UBM component count mismatch");
    assert_eq!(speaker.dim, ubm.dim, "speaker/UBM dimension mismatch");
    let n = frames.num_frames();
    if n == 0 {
        return LlrBreakdown {
            score: f64::NEG_INFINITY,
            frames: 0,
            pruned_components: 0,
            evaluated_components: 0,
        };
    }
    let k = ubm.k;
    let dim = ubm.dim;
    let c_eff = if top_c == 0 || top_c >= k { k } else { top_c };
    let ScoreScratch {
        ubm_block,
        spk_block,
        spk_ll,
        xt,
        top,
    } = scratch;
    let mut sum = 0.0;
    let mut pruned = 0u64;
    let mut evaluated = 0u64;
    let mut start = 0;
    while start < n {
        let count = FRAME_BLOCK.min(n - start);
        transpose_block(frames, start, count, dim, xt);
        ubm.weighted_block_ll(xt, count, ubm_block);
        if c_eff == k {
            speaker.weighted_block_ll(xt, count, spk_block);
            evaluated += (count * k) as u64;
            for bi in 0..count {
                let row = bi * k;
                sum +=
                    log_sum_exp(&spk_block[row..row + k]) - log_sum_exp(&ubm_block[row..row + k]);
            }
        } else {
            for bi in 0..count {
                let x = frames.frame(start + bi);
                let ubm_ll = &ubm_block[bi * k..(bi + 1) * k];
                top.clear();
                top.extend(0..k);
                top.select_nth_unstable_by(c_eff - 1, |&a, &b| ubm_ll[b].total_cmp(&ubm_ll[a]));
                spk_ll.clear();
                spk_ll.extend(
                    top[..c_eff]
                        .iter()
                        .map(|&c| speaker.weighted_component_ll(c, x)),
                );
                evaluated += c_eff as u64;
                pruned += (k - c_eff) as u64;
                sum += log_sum_exp(spk_ll) - log_sum_exp(ubm_ll);
            }
        }
        start += count;
    }
    LlrBreakdown {
        score: sum / n as f64,
        frames: n,
        pruned_components: pruned,
        evaluated_components: evaluated,
    }
}

impl BinaryCodec for DiagonalGmm {
    const MAGIC: u32 = codec::magic(b"MGMM");
    const VERSION: u8 = 1;
    const NAME: &'static str = "DiagonalGmm";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_len(self.num_components());
        w.put_len(self.dim());
        w.put_f64_slice(&self.weights);
        for row in &self.means {
            w.put_f64_slice(row);
        }
        for row in &self.variances {
            w.put_f64_slice(row);
        }
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let invalid = |reason: &str| CodecError::Invalid {
            artifact: Self::NAME,
            reason: reason.to_string(),
        };
        let k = r.get_len()?;
        let dim = r.get_len()?;
        if k == 0 {
            return Err(invalid("mixture needs at least one component"));
        }
        if dim == 0 {
            return Err(invalid("feature dimension must be positive"));
        }
        let weights = r.get_f64_vec(k)?;
        let mut means = Vec::with_capacity(k);
        for _ in 0..k {
            means.push(r.get_f64_vec(dim)?);
        }
        let mut variances = Vec::with_capacity(k);
        for _ in 0..k {
            variances.push(r.get_f64_vec(dim)?);
        }
        // Mirror the `from_parameters` invariants, but as typed errors: the
        // checksum only proves the frame arrived intact, not that it
        // describes a sane mixture.
        if !means
            .iter()
            .flatten()
            .chain(weights.iter())
            .all(|v| v.is_finite())
        {
            return Err(invalid("parameters must be finite"));
        }
        let wsum: f64 = weights.iter().sum();
        if (wsum - 1.0).abs() >= 1e-6 {
            return Err(invalid("weights must sum to 1"));
        }
        if !variances.iter().flatten().all(|&v| v > 0.0) {
            return Err(invalid("variances must be positive"));
        }
        Ok(Self {
            weights,
            means,
            variances,
        })
    }
}

impl BinaryCodec for PreparedGmm {
    const MAGIC: u32 = codec::magic(b"MPGM");
    const VERSION: u8 = 1;
    const NAME: &'static str = "PreparedGmm";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_len(self.k);
        w.put_len(self.dim);
        w.put_f64_slice(&self.log_const);
        w.put_f64_slice(&self.means);
        w.put_f64_slice(&self.inv_var);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let invalid = |reason: &str| CodecError::Invalid {
            artifact: Self::NAME,
            reason: reason.to_string(),
        };
        let k = r.get_len()?;
        let dim = r.get_len()?;
        if k == 0 || dim == 0 {
            return Err(invalid("shape must be positive"));
        }
        let flat = k
            .checked_mul(dim)
            .ok_or_else(|| invalid("shape overflows"))?;
        let log_const = r.get_f64_vec(k)?;
        let means = r.get_f64_vec(flat)?;
        let inv_var = r.get_f64_vec(flat)?;
        if !inv_var.iter().all(|&v| v > 0.0) {
            return Err(invalid("inverse variances must be positive"));
        }
        Ok(Self {
            k,
            dim,
            log_const,
            means,
            inv_var,
        })
    }
}

impl BinaryCodec for QuantizedGmm {
    const MAGIC: u32 = codec::magic(b"MQGM");
    const VERSION: u8 = 1;
    const NAME: &'static str = "QuantizedGmm";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_len(self.k);
        w.put_len(self.dim);
        w.put_f64_slice(&self.log_const);
        w.put_f32_slice(&self.scale);
        w.put_i16_slice(&self.means_q);
        w.put_f32_slice(&self.inv_var);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let invalid = |reason: &str| CodecError::Invalid {
            artifact: Self::NAME,
            reason: reason.to_string(),
        };
        let k = r.get_len()?;
        let dim = r.get_len()?;
        if k == 0 || dim == 0 {
            return Err(invalid("shape must be positive"));
        }
        let flat = k
            .checked_mul(dim)
            .ok_or_else(|| invalid("shape overflows"))?;
        let log_const = r.get_f64_vec(k)?;
        let scale = r.get_f32_vec(k)?;
        let means_q = r.get_i16_vec(flat)?;
        let inv_var = r.get_f32_vec(flat)?;
        if !log_const.iter().all(|v| v.is_finite()) {
            return Err(invalid("log constants must be finite"));
        }
        if !scale.iter().all(|&s| s.is_finite() && s > 0.0) {
            return Err(invalid("dequantization steps must be positive"));
        }
        if !inv_var.iter().all(|&v| v.is_finite() && v > 0.0) {
            return Err(invalid("inverse variances must be positive"));
        }
        Ok(Self {
            k,
            dim,
            log_const,
            means_q,
            scale,
            inv_var,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean per-frame log-likelihood on the reference arithmetic.
    fn mean_ll<F: FrameSource + ?Sized>(gmm: &DiagonalGmm, frames: &F) -> f64 {
        let lls = gmm.responsibility_matrix(frames);
        lls.log_likelihoods().iter().sum::<f64>() / lls.num_frames() as f64
    }

    fn two_cluster_data(rng: &SimRng, n: usize) -> Vec<Vec<f64>> {
        let mut r = rng.fork("gmm-data");
        let mut data = Vec::new();
        for i in 0..n {
            if i % 2 == 0 {
                data.push(vec![r.gauss(-3.0, 0.7), r.gauss(0.0, 0.7)]);
            } else {
                data.push(vec![r.gauss(3.0, 0.7), r.gauss(1.0, 0.7)]);
            }
        }
        data
    }

    #[test]
    fn single_gaussian_pdf_matches_closed_form() {
        let g =
            DiagonalGmm::from_parameters(vec![1.0], vec![vec![1.0, -1.0]], vec![vec![2.0, 0.5]]);
        let x = [0.5, 0.0];
        let expected = -0.5
            * (2.0 * LOG_2PI
                + 2.0f64.ln()
                + 0.5f64.ln()
                + (0.5 - 1.0f64).powi(2) / 2.0
                + (0.0 - (-1.0f64)).powi(2) / 0.5);
        assert!((g.log_pdf(&x) - expected).abs() < 1e-12);
    }

    #[test]
    fn em_recovers_two_clusters() {
        let rng = SimRng::from_seed(11);
        let data = two_cluster_data(&rng, 600);
        let gmm = DiagonalGmm::train(&data, 2, 50, 1e-7, &rng);
        let mut mxs: Vec<f64> = gmm.means().iter().map(|m| m[0]).collect();
        mxs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((mxs[0] + 3.0).abs() < 0.3, "left mean {}", mxs[0]);
        assert!((mxs[1] - 3.0).abs() < 0.3, "right mean {}", mxs[1]);
        for w in gmm.weights() {
            assert!((w - 0.5).abs() < 0.1);
        }
    }

    #[test]
    fn em_increases_likelihood() {
        let rng = SimRng::from_seed(13);
        let data = two_cluster_data(&rng, 300);
        let short = DiagonalGmm::train(&data, 4, 1, 0.0, &rng);
        let long = DiagonalGmm::train(&data, 4, 30, 0.0, &rng);
        assert!(
            mean_ll(&long, &data) >= mean_ll(&short, &data) - 1e-9,
            "more EM must not reduce likelihood"
        );
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let rng = SimRng::from_seed(17);
        let data = two_cluster_data(&rng, 200);
        let gmm = DiagonalGmm::train(&data, 3, 20, 1e-6, &rng);
        for x in &data[..10] {
            let r = gmm.responsibilities(x);
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(r.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn map_adaptation_moves_means_toward_data() {
        let rng = SimRng::from_seed(19);
        let ubm_data = two_cluster_data(&rng, 400);
        let ubm = DiagonalGmm::train(&ubm_data, 2, 30, 1e-6, &rng);
        // Speaker data: only near the left cluster, shifted up in y.
        let mut r = rng.fork("spk");
        let spk_data: Vec<Vec<f64>> = (0..100)
            .map(|_| vec![r.gauss(-3.0, 0.5), r.gauss(2.0, 0.5)])
            .collect();
        let adapted = ubm.map_adapt_means(&spk_data, 16.0);
        // The left component's y-mean should move up; weights unchanged.
        let left = (0..2)
            .min_by(|&a, &b| ubm.means()[a][0].partial_cmp(&ubm.means()[b][0]).unwrap())
            .unwrap();
        assert!(
            adapted.means()[left][1] > ubm.means()[left][1] + 0.5,
            "adapted {} vs ubm {}",
            adapted.means()[left][1],
            ubm.means()[left][1]
        );
        assert_eq!(adapted.weights(), ubm.weights());
        assert_eq!(adapted.variances(), ubm.variances());
    }

    #[test]
    fn llr_separates_matched_and_mismatched_data() {
        let rng = SimRng::from_seed(23);
        let ubm_data = two_cluster_data(&rng, 400);
        let ubm = DiagonalGmm::train(&ubm_data, 2, 30, 1e-6, &rng);
        let mut r = rng.fork("spk2");
        let spk: Vec<Vec<f64>> = (0..120)
            .map(|_| vec![r.gauss(-3.0, 0.5), r.gauss(2.0, 0.5)])
            .collect();
        let model = ubm.map_adapt_means(&spk, 16.0);
        let genuine: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![r.gauss(-3.0, 0.5), r.gauss(2.0, 0.5)])
            .collect();
        let impostor: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![r.gauss(3.0, 0.7), r.gauss(1.0, 0.7)])
            .collect();
        let g = model.llr_score(&ubm, &genuine);
        let i = model.llr_score(&ubm, &impostor);
        assert!(g > i + 0.2, "genuine {g} should beat impostor {i}");
    }

    #[test]
    fn log_sum_exp_stability() {
        assert!((log_sum_exp(&[-1000.0, -1000.0]) - (-1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert!((log_sum_exp(&[0.0, 0.0]) - 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn empty_frames_score_neg_infinity() {
        let g = DiagonalGmm::from_parameters(vec![1.0], vec![vec![0.0]], vec![vec![1.0]]);
        let empty: Vec<Vec<f64>> = Vec::new();
        assert_eq!(g.responsibility_matrix(&empty).num_frames(), 0);
        assert_eq!(g.llr_score(&g, &empty), f64::NEG_INFINITY);
        let p = PreparedGmm::new(&g);
        assert_eq!(
            p.mean_log_likelihood(&empty, &mut ScoreScratch::new()),
            f64::NEG_INFINITY
        );
        let b = llr_score_prepared(&p, &p, &empty, 0, &mut ScoreScratch::new());
        assert_eq!(b.score, f64::NEG_INFINITY);
        assert_eq!(b.frames, 0);
    }

    /// Regression pin for the log-weight hoisting (satellite of the fast
    /// path): `log_pdf`, the hoisted bulk scorers, and the prepared fast
    /// path all agree with a longhand evaluation of
    /// `ln Σ_c w_c N(x; μ_c, σ²_c)` to 1e-9.
    #[test]
    fn log_pdf_pinned_against_longhand_formula() {
        let weights = vec![0.25, 0.55, 0.2];
        let means = vec![vec![0.0, 1.0], vec![-2.0, 0.5], vec![3.0, -1.5]];
        let variances = vec![vec![1.0, 2.0], vec![0.3, 0.7], vec![1.5, 0.2]];
        let gmm = DiagonalGmm::from_parameters(weights.clone(), means.clone(), variances.clone());
        let prepared = PreparedGmm::new(&gmm);
        let mut buf = Vec::new();
        let mut scratch = ScoreScratch::new();
        for x in [[0.1, 0.2], [-2.0, 0.5], [5.0, -3.0], [0.0, 0.0]] {
            let longhand: Vec<f64> = (0..3)
                .map(|c| {
                    let mut l = weights[c].ln();
                    for d in 0..2 {
                        let (m, v) = (means[c][d], variances[c][d]);
                        l += -0.5 * (LOG_2PI + v.ln() + (x[d] - m) * (x[d] - m) / v);
                    }
                    l
                })
                .collect();
            let expected = log_sum_exp(&longhand);
            assert!((gmm.log_pdf(&x) - expected).abs() < 1e-9);
            assert!((prepared.log_pdf(&x, &mut buf) - expected).abs() < 1e-9);
            let one = vec![x.to_vec()];
            assert!((mean_ll(&gmm, &one) - expected).abs() < 1e-9);
            assert!((prepared.mean_log_likelihood(&one, &mut scratch) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn prepared_exact_score_matches_reference_scorer() {
        let rng = SimRng::from_seed(29);
        let data = two_cluster_data(&rng, 300);
        let ubm = DiagonalGmm::train(&data, 4, 20, 1e-6, &rng);
        let model = ubm.map_adapt_means(&data[..80].to_vec(), 16.0);
        let frames = &data[100..180].to_vec();
        let reference = model.llr_score(&ubm, frames);
        let (spk, bg) = (PreparedGmm::new(&model), PreparedGmm::new(&ubm));
        let mut scratch = ScoreScratch::new();
        for top_c in [0, 4, 100] {
            let b = llr_score_prepared(&spk, &bg, frames, top_c, &mut scratch);
            assert!(
                (b.score - reference).abs() < 1e-9,
                "top_c={top_c}: {} vs {reference}",
                b.score
            );
            assert_eq!(b.frames, frames.len());
            assert_eq!(b.pruned_components, 0, "C=all must not prune");
        }
    }

    #[test]
    fn pruned_score_counts_and_approximates() {
        let rng = SimRng::from_seed(31);
        let data = two_cluster_data(&rng, 400);
        let ubm = DiagonalGmm::train(&data, 8, 20, 1e-6, &rng);
        let model = ubm.map_adapt_means(&data[..100].to_vec(), 16.0);
        let frames = &data[200..300].to_vec();
        let (spk, bg) = (PreparedGmm::new(&model), PreparedGmm::new(&ubm));
        let mut scratch = ScoreScratch::new();
        let exact = llr_score_prepared(&spk, &bg, frames, 0, &mut scratch);
        let pruned = llr_score_prepared(&spk, &bg, frames, 4, &mut scratch);
        assert_eq!(
            pruned.pruned_components,
            (frames.len() * (8 - 4)) as u64,
            "every frame prunes k − C speaker evaluations"
        );
        assert_eq!(pruned.evaluated_components, (frames.len() * 4) as u64);
        // The speaker term is a log-sum over a subset of components, so
        // pruning can only lower the score — and with the dominant
        // components kept, only slightly.
        assert!(
            pruned.score <= exact.score + 1e-12,
            "subset sum may not exceed the full sum"
        );
        assert!(
            (pruned.score - exact.score).abs() < 0.05,
            "pruned {} vs exact {}",
            pruned.score,
            exact.score
        );
    }

    #[test]
    fn frame_matrix_scores_like_vec_layout() {
        let rng = SimRng::from_seed(37);
        let data = two_cluster_data(&rng, 200);
        let gmm = DiagonalGmm::train(&data, 3, 15, 1e-6, &rng);
        let matrix = magshield_dsp::FrameMatrix::from_rows(&data);
        assert_eq!(
            gmm.responsibility_matrix(&data),
            gmm.responsibility_matrix(&matrix)
        );
        assert_eq!(gmm.llr_score(&gmm, &data), gmm.llr_score(&gmm, &matrix));
        let a = gmm.map_adapt_means(&data, 16.0);
        let b = gmm.map_adapt_means(&matrix, 16.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "weights must sum to 1")]
    fn rejects_bad_weights() {
        DiagonalGmm::from_parameters(vec![0.5], vec![vec![0.0]], vec![vec![1.0]]);
    }

    mod codec_round_trip {
        use super::*;
        use crate::codec::{assert_hostile_input_fails, BinaryCodec, CodecError};
        use magshield_simkit::prop::prelude::*;

        /// An arbitrary valid mixture: raw positives normalized into
        /// weights, finite means, strictly positive variances.
        fn arb_gmm() -> impl Strategy<Value = DiagonalGmm> {
            (1usize..5, 1usize..6, 0u64..u64::MAX).prop_map(|(k, dim, seed)| {
                let mut rng = SimRng::from_seed(seed);
                let raw: Vec<f64> = (0..k).map(|_| rng.uniform(0.1, 1.0)).collect();
                let sum: f64 = raw.iter().sum();
                let weights = raw.iter().map(|w| w / sum).collect();
                let means = (0..k)
                    .map(|_| (0..dim).map(|_| rng.gauss(0.0, 5.0)).collect())
                    .collect();
                let variances = (0..k)
                    .map(|_| (0..dim).map(|_| rng.uniform(1e-3, 4.0)).collect())
                    .collect();
                DiagonalGmm::from_parameters(weights, means, variances)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn gmm_round_trips_exactly(gmm in arb_gmm()) {
                let bytes = gmm.to_bytes();
                prop_assert_eq!(DiagonalGmm::from_bytes(&bytes).unwrap(), gmm);
            }

            #[test]
            fn prepared_round_trips_exactly(gmm in arb_gmm()) {
                let prepared = PreparedGmm::new(&gmm);
                let bytes = prepared.to_bytes();
                prop_assert_eq!(PreparedGmm::from_bytes(&bytes).unwrap(), prepared);
            }

            #[test]
            fn quantized_round_trips_exactly(gmm in arb_gmm()) {
                let quant = QuantizedGmm::from_prepared(&PreparedGmm::new(&gmm));
                let bytes = quant.to_bytes();
                prop_assert_eq!(QuantizedGmm::from_bytes(&bytes).unwrap(), quant);
            }
        }

        #[test]
        fn hostile_input_yields_typed_errors() {
            let rng = SimRng::from_seed(11);
            let data = two_cluster_data(&rng, 120);
            let gmm = DiagonalGmm::train(&data, 2, 8, 1e-6, &rng);
            assert_hostile_input_fails::<DiagonalGmm>(&gmm.to_bytes());
            assert_hostile_input_fails::<PreparedGmm>(&PreparedGmm::new(&gmm).to_bytes());
            assert_hostile_input_fails::<QuantizedGmm>(
                &QuantizedGmm::from_prepared(&PreparedGmm::new(&gmm)).to_bytes(),
            );
        }

        #[test]
        fn decoded_quantized_scores_bit_identically() {
            // The wire format stores the quantized parameters verbatim, so
            // a decoded model must reproduce the same score bits.
            let rng = SimRng::from_seed(29);
            let data = two_cluster_data(&rng, 150);
            let ubm = DiagonalGmm::train(&data, 3, 10, 1e-6, &rng);
            let model = ubm.map_adapt_means(&data, 16.0);
            let spk_q = QuantizedGmm::from_prepared(&PreparedGmm::new(&model));
            let bg_q = QuantizedGmm::from_prepared(&PreparedGmm::new(&ubm));
            let spk_back = QuantizedGmm::from_bytes(&spk_q.to_bytes()).unwrap();
            let bg_back = QuantizedGmm::from_bytes(&bg_q.to_bytes()).unwrap();
            let mut scratch = ScoreScratch::new();
            let a = llr_score_quantized(&spk_q, &bg_q, &data, 2, &mut scratch);
            let b = llr_score_quantized(&spk_back, &bg_back, &data, 2, &mut scratch);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        #[test]
        fn intact_frame_with_bad_weights_is_invalid_not_panic() {
            // A structurally perfect frame describing a mixture whose
            // weights sum to 2: the envelope passes, decode_payload must
            // refuse.
            let g = DiagonalGmm::from_parameters(vec![1.0], vec![vec![0.0]], vec![vec![1.0]]);
            let mut hostile = g.clone();
            hostile.weights[0] = 2.0;
            match DiagonalGmm::from_bytes(&hostile.to_bytes()) {
                Err(CodecError::Invalid { artifact, .. }) => {
                    assert_eq!(artifact, "DiagonalGmm");
                }
                other => panic!("expected Invalid, got {other:?}"),
            }
        }

        #[test]
        fn decoded_gmm_scores_identically() {
            let rng = SimRng::from_seed(23);
            let data = two_cluster_data(&rng, 150);
            let gmm = DiagonalGmm::train(&data, 3, 10, 1e-6, &rng);
            let back = DiagonalGmm::from_bytes(&gmm.to_bytes()).unwrap();
            assert_eq!(mean_ll(&gmm, &data), mean_ll(&back, &data));
        }

        #[test]
        fn gmm_bytes_do_not_decode_as_prepared() {
            let g = DiagonalGmm::from_parameters(vec![1.0], vec![vec![0.0]], vec![vec![1.0]]);
            assert!(matches!(
                PreparedGmm::from_bytes(&g.to_bytes()),
                Err(CodecError::BadMagic { .. })
            ));
        }
    }
}
