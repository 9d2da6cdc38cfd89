//! Inter-session variability (ISV) compensation in the GMM supervector
//! domain.
//!
//! Spear's ISV models a per-session offset `U·x` on the GMM mean
//! supervector: stacking every component's mean gives a `k·d` vector, and
//! channel/session effects move that vector along a low-rank subspace `U`
//! estimated from within-speaker, between-session variation. We implement
//! the standard simplification:
//!
//! 1. for each training (speaker, session) group, compute the *centered
//!    supervector*: relevance-weighted deviations of component means from
//!    the UBM (`Baum–Welch first-order statistics`);
//! 2. difference each session supervector against its speaker's mean
//!    supervector, and fit `U` by PCA over those deltas (the Gram trick
//!    handles `k·d ≫ #sessions`);
//! 3. at enrollment and test time, estimate the utterance's session
//!    offset by projecting its supervector onto `U`, and subtract the
//!    offset from every frame, weighted by the frame's component
//!    responsibilities — feature-domain application of the supervector
//!    correction.

use crate::frontend::FeatureExtractor;
use crate::model::{
    enroll_frames, with_session_scratch, CohortUtterance, EnrollError, SpeakerModel, UbmBackend,
};
use magshield_dsp::frame::{FrameMatrix, FrameSource, FrameSourceMut};
use magshield_ml::gmm::{llr_score_prepared, DiagonalGmm, Responsibilities, ScoreScratch};
use magshield_ml::pca::Pca;

/// Relevance factor damping low-evidence components in the supervector.
const SUPERVECTOR_RELEVANCE: f64 = 8.0;

/// A trained session-variability subspace over GMM supervectors.
#[derive(Debug, Clone)]
pub struct SessionSubspace {
    /// Orthonormal basis (rows) in supervector space, `rank × (k·d)`.
    basis: Vec<Vec<f64>>,
    /// Components and dimension of the supervector layout.
    num_components: usize,
    dim: usize,
}

impl SessionSubspace {
    /// Estimates the subspace from `(speaker, session, frames)` groups
    /// against `ubm`.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or fewer than two multi-session supervector
    /// deltas are available.
    pub fn estimate<F: FrameSource>(
        ubm: &DiagonalGmm,
        groups: &[(u32, u32, F)],
        rank: usize,
    ) -> Self {
        assert!(rank > 0, "rank must be positive");
        // speaker → (session → supervectors).
        let mut by_speaker: std::collections::BTreeMap<
            u32,
            std::collections::BTreeMap<u32, Vec<Vec<f64>>>,
        > = std::collections::BTreeMap::new();
        for (spk, sess, frames) in groups {
            if frames.num_frames() == 0 {
                continue;
            }
            by_speaker
                .entry(*spk)
                .or_default()
                .entry(*sess)
                .or_default()
                .push(supervector(ubm, frames));
        }
        let mut deltas: Vec<Vec<f64>> = Vec::new();
        for sessions in by_speaker.values() {
            if sessions.len() < 2 {
                continue;
            }
            let session_means: Vec<Vec<f64>> = sessions.values().map(|svs| mean_of(svs)).collect();
            let speaker_mean = mean_of(&session_means);
            for sm in &session_means {
                deltas.push(sm.iter().zip(&speaker_mean).map(|(a, b)| a - b).collect());
            }
        }
        assert!(
            deltas.len() >= 2,
            "need multi-session training data to estimate session variability \
             ({} deltas)",
            deltas.len()
        );
        let pca = Pca::fit_gram(&deltas, rank);
        Self {
            basis: pca.components().to_vec(),
            num_components: ubm.num_components(),
            dim: ubm.dim(),
        }
    }

    /// Rank of the subspace (may be below the requested rank when the
    /// training data had less session variation).
    pub fn rank(&self) -> usize {
        self.basis.len()
    }

    /// The orthonormal basis rows, each of length `k·d`.
    pub fn basis(&self) -> &[Vec<f64>] {
        &self.basis
    }

    /// Removes the session component of `frames` in place.
    ///
    /// The utterance's supervector offset is projected onto the subspace;
    /// the projected per-component offsets are subtracted from each frame
    /// in proportion to the frame's component responsibilities. One
    /// responsibility matrix over the uncompensated frames serves both
    /// the supervector and the per-frame correction.
    pub fn compensate<F: FrameSourceMut + ?Sized>(&self, ubm: &DiagonalGmm, frames: &mut F) {
        if frames.num_frames() == 0 || self.basis.is_empty() {
            return;
        }
        let resp = ubm.responsibility_matrix(&*frames);
        let sv = supervector_from(ubm, &*frames, &resp);
        // Projection onto the basis.
        let mut offset = vec![0.0; sv.len()];
        for b in &self.basis {
            let coef: f64 = b.iter().zip(&sv).map(|(x, y)| x * y).sum();
            for (o, bi) in offset.iter_mut().zip(b) {
                *o += coef * bi;
            }
        }
        // Subtract responsibility-weighted per-component offsets.
        for i in 0..frames.num_frames() {
            let r = resp.row(i);
            let f = frames.frame_mut(i);
            for d in 0..self.dim {
                let mut corr = 0.0;
                for (c, &rc) in r.iter().enumerate().take(self.num_components) {
                    corr += rc * offset[c * self.dim + d];
                }
                f[d] -= corr;
            }
        }
    }
}

/// Relevance-weighted centered supervector of an utterance: for each UBM
/// component, `w_c · (E_c[x] − m_c)` with `w_c = n_c / (n_c + τ)`.
pub fn supervector<F: FrameSource + ?Sized>(ubm: &DiagonalGmm, frames: &F) -> Vec<f64> {
    supervector_from(ubm, frames, &ubm.responsibility_matrix(frames))
}

/// [`supervector`] from the frames' responsibilities under `ubm`.
fn supervector_from<F: FrameSource + ?Sized>(
    ubm: &DiagonalGmm,
    frames: &F,
    resp: &Responsibilities,
) -> Vec<f64> {
    let k = ubm.num_components();
    let dim = ubm.dim();
    let mut nk = vec![0.0; k];
    let mut sum = vec![0.0; k * dim];
    for i in 0..frames.num_frames() {
        let x = frames.frame(i);
        let r = resp.row(i);
        for c in 0..k {
            nk[c] += r[c];
            let row = &mut sum[c * dim..(c + 1) * dim];
            for (s, &xi) in row.iter_mut().zip(x) {
                *s += r[c] * xi;
            }
        }
    }
    let mut sv = vec![0.0; k * dim];
    for c in 0..k {
        if nk[c] < 1e-8 {
            continue;
        }
        let w = nk[c] / (nk[c] + SUPERVECTOR_RELEVANCE);
        for d in 0..dim {
            sv[c * dim + d] = w * (sum[c * dim + d] / nk[c] - ubm.means()[c][d]);
        }
    }
    sv
}

/// The ISV verification backend (the "ISV" system of Table I): GMM–UBM
/// scoring on session-compensated features.
#[derive(Debug, Clone)]
pub struct IsvBackend {
    /// The underlying GMM–UBM machinery.
    pub ubm_backend: UbmBackend,
    /// The session subspace.
    pub subspace: SessionSubspace,
    /// The UBM backend's Z-norm cohort, session-compensated (with UBM
    /// likelihood terms recomputed on the compensated frames).
    cohort: Vec<CohortUtterance>,
}

impl IsvBackend {
    /// Builds an ISV backend over an existing UBM backend; the backend's
    /// Z-norm cohort (if any) is re-used with compensation applied.
    pub fn new(ubm_backend: UbmBackend, subspace: SessionSubspace) -> Self {
        let mut scratch = ScoreScratch::new();
        let cohort = ubm_backend
            .cohort()
            .iter()
            .map(|c| {
                let mut frames = c.frames.clone();
                subspace.compensate(&ubm_backend.ubm, &mut frames);
                let ubm_mean_ll = ubm_backend
                    .prepared_ubm()
                    .mean_log_likelihood(&frames, &mut scratch);
                CohortUtterance {
                    frames,
                    ubm_mean_ll,
                }
            })
            .collect();
        Self {
            ubm_backend,
            subspace,
            cohort,
        }
    }

    /// The shared front end.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.ubm_backend.extractor
    }

    /// Enrolls a speaker on compensated features.
    ///
    /// # Panics
    ///
    /// Panics if no feature frames can be extracted; [`Self::try_enroll`]
    /// returns that refusal instead.
    pub fn enroll(&self, speaker_id: u32, utterances: &[&[f64]]) -> SpeakerModel {
        self.try_enroll(speaker_id, utterances)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Enrolls a speaker on compensated features, refusing a set that
    /// yields no feature frames.
    pub fn try_enroll(
        &self,
        speaker_id: u32,
        utterances: &[&[f64]],
    ) -> Result<SpeakerModel, EnrollError> {
        let per_utt: Vec<FrameMatrix> = utterances
            .iter()
            .map(|audio| {
                let mut f = self.ubm_backend.extractor.extract(audio);
                self.subspace.compensate(&self.ubm_backend.ubm, &mut f);
                f
            })
            .collect();
        enroll_frames(
            &self.ubm_backend.ubm,
            self.ubm_backend.prepared_ubm(),
            speaker_id,
            &per_utt,
            &self.cohort,
        )
    }

    /// Verification score of `audio` against `model` on compensated
    /// features: the Z-normalized LLR, scored exactly (every component,
    /// no pruning) on the prepared kernel. Extraction and compensation
    /// allocate (the supervector projection dominates the ISV path); only
    /// the GMM scoring reuses the per-thread scratch. Compensation runs
    /// on the UBM the subspace was trained against.
    pub fn score(&self, model: &SpeakerModel, audio: &[f64]) -> f64 {
        let mut frames = self.ubm_backend.extractor.extract(audio);
        self.subspace.compensate(&self.ubm_backend.ubm, &mut frames);
        let b = with_session_scratch(|s| {
            llr_score_prepared(
                model.prepared(),
                self.ubm_backend.prepared_ubm(),
                &frames,
                0,
                &mut s.score,
            )
        });
        model.normalize(b.score)
    }
}

fn mean_of(vectors: &[Vec<f64>]) -> Vec<f64> {
    let dim = vectors[0].len();
    let mut m = vec![0.0; dim];
    for v in vectors {
        for (mi, x) in m.iter_mut().zip(v) {
            *mi += x;
        }
    }
    for mi in &mut m {
        *mi /= vectors.len() as f64;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use magshield_simkit::rng::SimRng;

    /// A 2-component, 2-D UBM with well-separated components.
    fn toy_ubm() -> DiagonalGmm {
        DiagonalGmm::from_parameters(
            vec![0.5, 0.5],
            vec![vec![-3.0, 0.0], vec![3.0, 0.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
        )
    }

    /// Frames around both components, with a session offset along y and a
    /// per-speaker offset along... y as well but opposed across sessions.
    fn session_frames(rng: &SimRng, session_y: f64, speaker_y: f64, n: usize) -> Vec<Vec<f64>> {
        let mut r = rng.fork("frames");
        (0..n)
            .map(|i| {
                let cx = if i % 2 == 0 { -3.0 } else { 3.0 };
                vec![
                    cx + r.gauss(0.0, 0.3),
                    session_y + speaker_y + r.gauss(0.0, 0.3),
                ]
            })
            .collect()
    }

    fn toy_groups(rng: &SimRng) -> Vec<(u32, u32, Vec<Vec<f64>>)> {
        let mut groups = Vec::new();
        for spk in 0..3u32 {
            let speaker_y = (spk as f64 - 1.0) * 0.3; // small speaker trait
            for sess in 0..3u32 {
                let session_y = (sess as f64 - 1.0) * 2.0; // big session shift
                groups.push((
                    spk,
                    sess,
                    session_frames(
                        &rng.fork_indexed("g", u64::from(spk) << 8 | u64::from(sess)),
                        session_y,
                        speaker_y,
                        60,
                    ),
                ));
            }
        }
        groups
    }

    #[test]
    fn subspace_captures_session_direction() {
        let rng = SimRng::from_seed(1);
        let ubm = toy_ubm();
        let sub = SessionSubspace::estimate(&ubm, &toy_groups(&rng), 1);
        assert_eq!(sub.rank(), 1);
        // The session shift moves the y-mean of both components equally:
        // basis should weight the y dims of both components.
        let b = &sub.basis[0];
        let y_energy = b[1] * b[1] + b[3] * b[3];
        assert!(y_energy > 0.9, "basis {b:?} should live on the y dims");
    }

    #[test]
    fn compensation_removes_session_shift() {
        let rng = SimRng::from_seed(2);
        let ubm = toy_ubm();
        let sub = SessionSubspace::estimate(&ubm, &toy_groups(&rng), 1);
        let mut frames = session_frames(&rng.fork("test"), 2.0, 0.0, 60);
        let mean_y_before: f64 = frames.iter().map(|f| f[1]).sum::<f64>() / frames.len() as f64;
        sub.compensate(&ubm, &mut frames);
        let mean_y_after: f64 = frames.iter().map(|f| f[1]).sum::<f64>() / frames.len() as f64;
        assert!(
            mean_y_after.abs() < mean_y_before.abs() * 0.5,
            "session y-shift should shrink: {mean_y_before} → {mean_y_after}"
        );
    }

    #[test]
    fn compensation_agrees_across_frame_layouts() {
        let rng = SimRng::from_seed(8);
        let ubm = toy_ubm();
        let sub = SessionSubspace::estimate(&ubm, &toy_groups(&rng), 1);
        let mut rows = session_frames(&rng.fork("layout"), 1.5, 0.2, 40);
        let mut flat = FrameMatrix::from_rows(&rows);
        sub.compensate(&ubm, &mut rows);
        sub.compensate(&ubm, &mut flat);
        assert_eq!(flat, FrameMatrix::from_rows(&rows), "layouts must agree");
    }

    #[test]
    fn compensation_preserves_component_structure() {
        let rng = SimRng::from_seed(3);
        let ubm = toy_ubm();
        let sub = SessionSubspace::estimate(&ubm, &toy_groups(&rng), 1);
        let mut frames = session_frames(&rng.fork("test2"), -2.0, 0.0, 60);
        sub.compensate(&ubm, &mut frames);
        // x-means of the two clusters must stay near ±3.
        let left: Vec<f64> = frames.iter().filter(|f| f[0] < 0.0).map(|f| f[0]).collect();
        let right: Vec<f64> = frames.iter().filter(|f| f[0] > 0.0).map(|f| f[0]).collect();
        let m = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((m(&left) + 3.0).abs() < 0.4);
        assert!((m(&right) - 3.0).abs() < 0.4);
    }

    #[test]
    fn supervector_is_zero_for_ubm_centered_data() {
        let rng = SimRng::from_seed(4);
        let ubm = toy_ubm();
        let frames = session_frames(&rng.fork("c"), 0.0, 0.0, 400);
        let sv = supervector(&ubm, &frames);
        let norm: f64 = sv.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm < 0.5, "centered data → small supervector, got {norm}");
    }

    #[test]
    fn empty_frames_are_noop() {
        let rng = SimRng::from_seed(5);
        let ubm = toy_ubm();
        let sub = SessionSubspace::estimate(&ubm, &toy_groups(&rng), 1);
        let mut frames: Vec<Vec<f64>> = Vec::new();
        sub.compensate(&ubm, &mut frames);
        assert!(frames.is_empty());
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn rejects_zero_rank() {
        let rng = SimRng::from_seed(6);
        SessionSubspace::estimate(&toy_ubm(), &toy_groups(&rng), 0);
    }

    #[test]
    #[should_panic(expected = "multi-session")]
    fn rejects_single_session_data() {
        let rng = SimRng::from_seed(7);
        let groups = vec![(0u32, 0u32, session_frames(&rng, 0.0, 0.0, 30))];
        SessionSubspace::estimate(&toy_ubm(), &groups, 1);
    }

    /// ISV scores on the prepared kernel: `score` agrees with the
    /// reference `DiagonalGmm::llr_score` on the compensated frames to
    /// 1e-9.
    #[test]
    fn score_runs_the_prepared_kernel_on_compensated_frames() {
        use crate::ubm::{train_ubm, UbmConfig};
        use magshield_voice::corpus::{build_corpus, CorpusConfig};
        use magshield_voice::synth::VOICE_SAMPLE_RATE;

        let rng = SimRng::from_seed(23);
        let corpus = build_corpus(
            &CorpusConfig {
                num_speakers: 4,
                sessions_per_speaker: 2,
                utterances_per_session: 2,
                passphrase_len: 4,
                session_strength: 0.6,
                corpus_tilt_db_per_oct: 0.0,
                first_speaker_id: 0,
            },
            &rng,
        );
        let fx = FeatureExtractor::new(VOICE_SAMPLE_RATE);
        let utts: Vec<FrameMatrix> = corpus
            .utterances
            .iter()
            .map(|u| fx.extract(&u.audio))
            .collect();
        let ubm = train_ubm(
            &utts,
            UbmConfig {
                components: 16,
                em_iters: 6,
                max_frames: 6000,
            },
            &rng,
        );
        let groups: Vec<_> = corpus
            .utterances
            .iter()
            .zip(&utts)
            .map(|(u, f)| (u.speaker_id, u.session, f.clone()))
            .collect();
        let subspace = SessionSubspace::estimate(&ubm, &groups, 2);
        let backend = IsvBackend::new(UbmBackend::new(fx, ubm).with_cohort(&utts), subspace);

        let sp = corpus.speakers[0].id;
        let enroll: Vec<&[f64]> = corpus.of_speaker(sp)[..2]
            .iter()
            .map(|u| u.audio.as_slice())
            .collect();
        let model = backend.enroll(sp, &enroll);
        assert!(model.znorm.is_some(), "cohort attached → znorm computed");
        for u in &corpus.utterances {
            let score = backend.score(&model, &u.audio);
            let mut frames = backend.extractor().extract(&u.audio);
            backend
                .subspace
                .compensate(&backend.ubm_backend.ubm, &mut frames);
            let reference = model.normalize(model.gmm.llr_score(&backend.ubm_backend.ubm, &frames));
            assert!(
                (score - reference).abs() < 1e-9,
                "speaker {}: prepared {score} vs reference {reference}",
                u.speaker_id
            );
        }
    }
}
