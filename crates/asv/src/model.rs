//! Speaker enrollment and GMM–UBM verification with Z-norm score
//! normalization.
//!
//! Raw log-likelihood-ratio scores carry speaker-dependent offsets (some
//! models score *everyone* higher), which makes a single global threshold
//! unreliable. Spear — the toolbox the paper uses — applies Z-norm: each
//! enrolled model is scored against an impostor cohort, and verification
//! scores are reported in standard deviations above that cohort. We do the
//! same, drawing the cohort from the UBM training corpus.
//!
//! The scoring hot path is allocation-free: features land in a reusable
//! [`FrameMatrix`], both mixtures are lazily folded into [`PreparedGmm`]
//! constants, and the model-independent UBM half of every cohort
//! utterance's LLR is cached at cohort-attach time, so Z-norm never
//! re-scores the cohort against the UBM. Enrollment scores the cohort
//! once, against the served model; the leave-one-out genuine reference
//! reuses those statistics.

use crate::frontend::{FeatureExtractor, FrontendScratch};
use magshield_dsp::frame::FrameMatrix;
use magshield_ml::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};
use magshield_ml::gmm::{
    llr_score_prepared, llr_score_quantized, DiagonalGmm, PreparedGmm, QuantizedGmm,
    Responsibilities, ScoreScratch,
};
use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

/// MAP relevance factor (Reynolds' classic value).
pub const RELEVANCE_FACTOR: f64 = 16.0;

/// Maximum cohort utterances used for Z-norm statistics.
const MAX_COHORT: usize = 24;

/// An enrolled speaker: a MAP-adapted GMM plus Z-norm statistics.
#[derive(Debug, Clone)]
pub struct SpeakerModel {
    /// Claimed identity this model verifies.
    pub speaker_id: u32,
    /// The adapted mixture. Mutating it after the model has been scored
    /// does not invalidate the cached prepared form; build a fresh
    /// [`SpeakerModel`] instead.
    pub gmm: DiagonalGmm,
    /// Z-norm statistics `(mean, std)` of the model's impostor-cohort raw
    /// scores; `None` when no cohort was available (raw scores returned).
    pub znorm: Option<(f64, f64)>,
    /// Expected genuine score, estimated at enrollment by leave-one-out
    /// scoring of the enrollment utterances and Z-normalized with this
    /// model's own `znorm` (the units of [`SpeakerModel::normalize`]).
    /// Models stored before the reference took these units (the committed
    /// golden bundles and golden WAL among them) keep their old value
    /// until they are re-enrolled. Per-user threshold calibration —
    /// standard practice for text-dependent voice authentication — anchors
    /// the operating point to this value.
    pub genuine_ref: Option<f64>,
    prepared: OnceLock<PreparedGmm>,
    quantized: OnceLock<QuantizedGmm>,
}

impl SpeakerModel {
    /// Bundles an adapted mixture with its normalization statistics.
    pub fn new(
        speaker_id: u32,
        gmm: DiagonalGmm,
        znorm: Option<(f64, f64)>,
        genuine_ref: Option<f64>,
    ) -> Self {
        Self {
            speaker_id,
            gmm,
            znorm,
            genuine_ref,
            prepared: OnceLock::new(),
            quantized: OnceLock::new(),
        }
    }

    /// The mixture folded into fast-scoring constants (computed once,
    /// cached for the model's lifetime).
    pub fn prepared(&self) -> &PreparedGmm {
        self.prepared.get_or_init(|| PreparedGmm::new(&self.gmm))
    }

    /// The prepared mixture quantized for the low-bandwidth scoring path
    /// (computed once, cached for the model's lifetime).
    pub fn quantized(&self) -> &QuantizedGmm {
        self.quantized
            .get_or_init(|| QuantizedGmm::from_prepared(self.prepared()))
    }

    /// Applies Z-norm (identity when no statistics are present).
    pub fn normalize(&self, raw: f64) -> f64 {
        match self.znorm {
            Some((mu, sigma)) => (raw - mu) / sigma,
            None => raw,
        }
    }

    /// The calibrated per-user acceptance threshold: a fraction of the
    /// expected genuine score, floored at `floor` (normalized units).
    pub fn calibrated_threshold(&self, floor: f64) -> f64 {
        match self.genuine_ref {
            Some(g) => (0.7 * g).max(floor),
            None => floor,
        }
    }
}

/// A Z-norm cohort utterance: pre-extracted frames plus the cached
/// model-independent UBM half of its LLR.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortUtterance {
    /// Extracted (and, for ISV, compensated) feature frames.
    pub frames: FrameMatrix,
    /// Mean per-frame UBM log-likelihood of `frames`, computed once when
    /// the cohort is attached. The LLR against any speaker model is then
    /// `mean_spk_ll − ubm_mean_ll`, so cohort scoring only evaluates the
    /// speaker side.
    pub ubm_mean_ll: f64,
}

/// Everything [`UbmBackend::score_detailed_opts`] computed for one
/// utterance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsvScore {
    /// Z-normalized verification score (higher = more likely genuine).
    pub z: f64,
    /// Feature frames scored.
    pub frames: usize,
    /// Speaker-side Gaussian evaluations skipped by top-C pruning.
    pub pruned_components: u64,
    /// Speaker-side Gaussian evaluations performed.
    pub evaluated_components: u64,
}

/// Per-thread reusable state for the full extract-and-score path.
#[derive(Debug, Clone, Default)]
pub struct SessionScratch {
    pub(crate) frontend: FrontendScratch,
    pub(crate) frames: FrameMatrix,
    pub(crate) score: ScoreScratch,
}

impl SessionScratch {
    /// A fresh scratch with no reserved memory.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static SESSION_SCRATCH: RefCell<SessionScratch> = RefCell::new(SessionScratch::new());
}

/// Runs `f` with this thread's shared [`SessionScratch`]. The server's
/// pool workers are OS threads, so the sessions a worker runs share one
/// scratch per worker. `f` must not call back into this function.
pub fn with_session_scratch<R>(f: impl FnOnce(&mut SessionScratch) -> R) -> R {
    SESSION_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The GMM–UBM verification backend (the "UBM" system of Table I).
#[derive(Debug, Clone)]
pub struct UbmBackend {
    /// Shared front end.
    pub extractor: FeatureExtractor,
    /// The background model.
    pub ubm: DiagonalGmm,
    /// Pre-extracted cohort utterances for Z-norm, with cached UBM terms.
    cohort: Vec<CohortUtterance>,
    prepared: OnceLock<PreparedGmm>,
    quantized: OnceLock<QuantizedGmm>,
}

impl UbmBackend {
    /// Creates a backend from a trained UBM (no Z-norm cohort).
    pub fn new(extractor: FeatureExtractor, ubm: DiagonalGmm) -> Self {
        Self {
            extractor,
            ubm,
            cohort: Vec::new(),
            prepared: OnceLock::new(),
            quantized: OnceLock::new(),
        }
    }

    /// The UBM folded into fast-scoring constants (computed once, cached).
    pub fn prepared_ubm(&self) -> &PreparedGmm {
        self.prepared.get_or_init(|| PreparedGmm::new(&self.ubm))
    }

    /// The prepared UBM quantized for the low-bandwidth scoring path
    /// (computed once, cached).
    pub fn quantized_ubm(&self) -> &QuantizedGmm {
        self.quantized
            .get_or_init(|| QuantizedGmm::from_prepared(self.prepared_ubm()))
    }

    /// Attaches a Z-norm cohort (typically utterances from the UBM
    /// training corpus), given as frames extracted by this backend's
    /// front end; at most `MAX_COHORT` are kept, and empty ones are
    /// skipped. Each utterance's UBM log-likelihood is computed here,
    /// once, and reused by every subsequent enrollment.
    pub fn with_cohort(mut self, utterances: &[FrameMatrix]) -> Self {
        let prepared = PreparedGmm::new(&self.ubm);
        let mut scratch = ScoreScratch::new();
        self.cohort = utterances
            .iter()
            .take(MAX_COHORT)
            .filter(|f| !f.is_empty())
            .map(|frames| CohortUtterance {
                frames: frames.clone(),
                ubm_mean_ll: prepared.mean_log_likelihood(frames, &mut scratch),
            })
            .collect();
        self
    }

    /// The cohort utterances (ISV reuses them, compensated).
    pub fn cohort(&self) -> &[CohortUtterance] {
        &self.cohort
    }

    /// Enrolls a speaker from one or more utterances.
    ///
    /// # Panics
    ///
    /// Panics if no feature frames can be extracted; [`Self::try_enroll`]
    /// returns that refusal instead.
    pub fn enroll(&self, speaker_id: u32, utterances: &[&[f64]]) -> SpeakerModel {
        self.try_enroll(speaker_id, utterances)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Enrolls a speaker from one or more utterances, refusing a set that
    /// yields no feature frames.
    pub fn try_enroll(
        &self,
        speaker_id: u32,
        utterances: &[&[f64]],
    ) -> Result<SpeakerModel, EnrollError> {
        let per_utt: Vec<FrameMatrix> = utterances
            .iter()
            .map(|audio| self.extractor.extract(audio))
            .collect();
        enroll_frames(
            &self.ubm,
            self.prepared_ubm(),
            speaker_id,
            &per_utt,
            &self.cohort,
        )
    }

    /// Verification score of `audio` against `model`: Z-normalized average
    /// per-frame log-likelihood ratio (higher = more likely genuine).
    /// Exact scoring (no pruning); see [`Self::score_detailed_opts`] for
    /// the configurable fast path.
    pub fn score(&self, model: &SpeakerModel, audio: &[f64]) -> f64 {
        self.score_detailed_opts(model, audio, 0, false).z
    }

    /// Scores `audio` on the zero-allocation fast path using this thread's
    /// scratch. `top_c` bounds the speaker-side Gaussian evaluations per
    /// frame (`0` = exact, all components); `quantized` scores on the
    /// i16-mean [`QuantizedGmm`] pair (see
    /// [`magshield_ml::gmm::llr_drift_bound`] for the drift guarantee).
    pub fn score_detailed_opts(
        &self,
        model: &SpeakerModel,
        audio: &[f64],
        top_c: usize,
        quantized: bool,
    ) -> AsvScore {
        let b = with_session_scratch(|s| {
            self.extractor
                .extract_into(audio, &mut s.frontend, &mut s.frames);
            if quantized {
                llr_score_quantized(
                    model.quantized(),
                    self.quantized_ubm(),
                    &s.frames,
                    top_c,
                    &mut s.score,
                )
            } else {
                llr_score_prepared(
                    model.prepared(),
                    self.prepared_ubm(),
                    &s.frames,
                    top_c,
                    &mut s.score,
                )
            }
        });
        AsvScore {
            z: model.normalize(b.score),
            frames: b.frames,
            pruned_components: b.pruned_components,
            evaluated_components: b.evaluated_components,
        }
    }
}

/// Why an enrollment was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnrollError {
    /// No utterance yielded a feature frame: each was empty or shorter
    /// than one analysis frame.
    NoFrames,
}

impl fmt::Display for EnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoFrames => f.write_str(
                "enrollment produced no frames: every utterance is shorter than one feature frame",
            ),
        }
    }
}

impl std::error::Error for EnrollError {}

/// Enrolls `speaker_id` from per-utterance feature frames (compensated
/// first, for ISV): the MAP-adapted model, its Z-norm statistics against
/// `cohort`, and the leave-one-out genuine reference.
///
/// Each utterance's UBM responsibilities are computed once and shared by
/// the full adaptation and every leave-one-out adaptation. Utterances, and
/// the frames within each, are visited in order, so the model is
/// bit-identical to adapting on the concatenated frames.
pub(crate) fn enroll_frames(
    ubm: &DiagonalGmm,
    ubm_prepared: &PreparedGmm,
    speaker_id: u32,
    per_utt: &[FrameMatrix],
    cohort: &[CohortUtterance],
) -> Result<SpeakerModel, EnrollError> {
    if per_utt.iter().all(|f| f.is_empty()) {
        return Err(EnrollError::NoFrames);
    }
    let resp: Vec<Responsibilities> = per_utt
        .iter()
        .map(|f| ubm.responsibility_matrix(f))
        .collect();
    let gmm = ubm.map_adapt_means_with(per_utt.iter().zip(&resp), RELEVANCE_FACTOR);
    let mut scratch = ScoreScratch::new();
    let znorm = znorm_stats(&PreparedGmm::new(&gmm), cohort, &mut scratch);
    let genuine_ref = genuine_reference(ubm, ubm_prepared, per_utt, &resp, znorm, &mut scratch);
    Ok(SpeakerModel::new(speaker_id, gmm, znorm, genuine_ref))
}

/// Leave-one-out genuine-score estimate: each enrollment utterance is
/// scored against a model adapted from the *other* utterances, reusing
/// their UBM responsibilities `resp`. Each raw score is Z-normalized with
/// the served model's `znorm` (kept raw when there is none), so the mean
/// is in the units [`SpeakerModel::normalize`] gives the verification
/// score it is compared with. Needs at least two non-empty utterances;
/// returns the mean LOO score.
fn genuine_reference(
    ubm: &DiagonalGmm,
    ubm_prepared: &PreparedGmm,
    per_utt: &[FrameMatrix],
    resp: &[Responsibilities],
    znorm: Option<(f64, f64)>,
    scratch: &mut ScoreScratch,
) -> Option<f64> {
    let usable: Vec<usize> = (0..per_utt.len())
        .filter(|&i| !per_utt[i].is_empty())
        .collect();
    if usable.len() < 2 {
        return None;
    }
    let mut scores = Vec::new();
    for &i in &usable {
        let rest = usable
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| (&per_utt[j], &resp[j]));
        let sub = PreparedGmm::new(&ubm.map_adapt_means_with(rest, RELEVANCE_FACTOR));
        let raw = sub.mean_log_likelihood(&per_utt[i], scratch)
            - ubm_prepared.mean_log_likelihood(&per_utt[i], scratch);
        let z = match znorm {
            Some((mu, sigma)) => (raw - mu) / sigma,
            None => raw,
        };
        if z.is_finite() {
            scores.push(z);
        }
    }
    if scores.is_empty() {
        return None;
    }
    Some(scores.iter().sum::<f64>() / scores.len() as f64)
}

/// Encodes a [`FrameMatrix`] as `cols, rows, row-major f64s`.
pub(crate) fn put_frame_matrix(w: &mut ByteWriter, m: &FrameMatrix) {
    w.put_len(m.cols());
    w.put_len(m.rows());
    w.put_f64_slice(m.as_slice());
}

/// Decodes a [`FrameMatrix`] written by [`put_frame_matrix`].
pub(crate) fn get_frame_matrix(
    r: &mut ByteReader<'_>,
    artifact: &'static str,
) -> Result<FrameMatrix, CodecError> {
    let cols = r.get_len()?;
    let rows = r.get_len()?;
    if cols == 0 && rows > 0 {
        return Err(CodecError::Invalid {
            artifact,
            reason: "frame matrix with rows but zero columns".to_string(),
        });
    }
    let total = rows.checked_mul(cols).ok_or_else(|| CodecError::Invalid {
        artifact,
        reason: "frame matrix shape overflows".to_string(),
    })?;
    let flat = r.get_f64_vec(total)?;
    let mut m = FrameMatrix::new(cols);
    for row in flat.chunks_exact(cols.max(1)) {
        m.push_row(row);
    }
    Ok(m)
}

impl BinaryCodec for CohortUtterance {
    const MAGIC: u32 = codec::magic(b"MCOH");
    const VERSION: u8 = 1;
    const NAME: &'static str = "CohortUtterance";

    fn encode_payload(&self, w: &mut ByteWriter) {
        put_frame_matrix(w, &self.frames);
        w.put_f64(self.ubm_mean_ll);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            frames: get_frame_matrix(r, Self::NAME)?,
            ubm_mean_ll: r.get_f64()?,
        })
    }
}

impl BinaryCodec for SpeakerModel {
    const MAGIC: u32 = codec::magic(b"MSPK");
    const VERSION: u8 = 1;
    const NAME: &'static str = "SpeakerModel";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_u32(self.speaker_id);
        w.put_artifact(&self.gmm);
        match self.znorm {
            Some((mu, sigma)) => {
                w.put_bool(true);
                w.put_f64(mu);
                w.put_f64(sigma);
            }
            None => w.put_bool(false),
        }
        match self.genuine_ref {
            Some(g) => {
                w.put_bool(true);
                w.put_f64(g);
            }
            None => w.put_bool(false),
        }
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let speaker_id = r.get_u32()?;
        let gmm = DiagonalGmm::from_bytes(r.get_nested()?)?;
        let znorm = if r.get_bool()? {
            let mu = r.get_f64()?;
            let sigma = r.get_f64()?;
            if !(mu.is_finite() && sigma.is_finite() && sigma > 0.0) {
                return Err(CodecError::Invalid {
                    artifact: Self::NAME,
                    reason: "z-norm statistics must be finite with positive sigma".to_string(),
                });
            }
            Some((mu, sigma))
        } else {
            None
        };
        let genuine_ref = if r.get_bool()? {
            Some(r.get_f64()?)
        } else {
            None
        };
        Ok(Self::new(speaker_id, gmm, znorm, genuine_ref))
    }
}

impl BinaryCodec for UbmBackend {
    const MAGIC: u32 = codec::magic(b"MUBM");
    const VERSION: u8 = 1;
    const NAME: &'static str = "UbmBackend";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_artifact(&self.extractor);
        w.put_artifact(&self.ubm);
        w.put_len(self.cohort.len());
        for c in &self.cohort {
            c.encode_payload(w);
        }
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let extractor = FeatureExtractor::from_bytes(r.get_nested()?)?;
        let ubm = DiagonalGmm::from_bytes(r.get_nested()?)?;
        let n = r.get_len()?;
        if n > MAX_COHORT {
            return Err(CodecError::Invalid {
                artifact: Self::NAME,
                reason: format!("cohort of {n} exceeds the {MAX_COHORT}-utterance cap"),
            });
        }
        let mut cohort = Vec::with_capacity(n);
        for _ in 0..n {
            let c = CohortUtterance::decode_payload(r)?;
            if !c.frames.is_empty() && c.frames.cols() != ubm.dim() {
                return Err(CodecError::Invalid {
                    artifact: Self::NAME,
                    reason: format!(
                        "cohort frame dimension {} does not match UBM dimension {}",
                        c.frames.cols(),
                        ubm.dim()
                    ),
                });
            }
            cohort.push(c);
        }
        let mut backend = Self::new(extractor, ubm);
        backend.cohort = cohort;
        Ok(backend)
    }
}

/// Z-norm statistics of a model against cohort utterances. The UBM half
/// of each cohort LLR comes from [`CohortUtterance::ubm_mean_ll`]; only the
/// speaker side is evaluated here.
fn znorm_stats(
    model: &PreparedGmm,
    cohort: &[CohortUtterance],
    scratch: &mut ScoreScratch,
) -> Option<(f64, f64)> {
    let scores: Vec<f64> = cohort
        .iter()
        .map(|c| model.mean_log_likelihood(&c.frames, scratch) - c.ubm_mean_ll)
        .filter(|s| s.is_finite())
        .collect();
    if scores.len() < 3 {
        return None;
    }
    let mu = scores.iter().sum::<f64>() / scores.len() as f64;
    let var = scores.iter().map(|s| (s - mu).powi(2)).sum::<f64>() / scores.len() as f64;
    Some((mu, var.sqrt().max(1e-3)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ubm::{train_ubm, UbmConfig};
    use magshield_simkit::rng::SimRng;
    use magshield_voice::corpus::{build_corpus, CorpusConfig};
    use magshield_voice::synth::VOICE_SAMPLE_RATE;

    fn small_setup() -> (UbmBackend, magshield_voice::corpus::Corpus) {
        let rng = SimRng::from_seed(21);
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
        let backend = UbmBackend::new(fx, ubm).with_cohort(&utts);
        (backend, corpus)
    }

    #[test]
    fn genuine_scores_beat_impostor_scores() {
        let (backend, corpus) = small_setup();
        let mut genuine = Vec::new();
        let mut impostor = Vec::new();
        for sp in &corpus.speakers {
            let utts = corpus.of_speaker(sp.id);
            let enroll: Vec<&[f64]> = utts[..2].iter().map(|u| u.audio.as_slice()).collect();
            let model = backend.enroll(sp.id, &enroll);
            for u in &utts[2..] {
                genuine.push(backend.score(&model, &u.audio));
            }
            for other in &corpus.speakers {
                if other.id != sp.id {
                    let u = corpus.of_speaker(other.id)[2];
                    impostor.push(backend.score(&model, &u.audio));
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&genuine) > mean(&impostor) + 0.5,
            "genuine {} vs impostor {} (z-scores)",
            mean(&genuine),
            mean(&impostor)
        );
        let eer = magshield_ml::metrics::equal_error_rate(&genuine, &impostor);
        assert!(
            eer < 0.25,
            "EER {eer} too high for a clean synthetic corpus"
        );
    }

    #[test]
    fn znorm_centers_impostor_scores() {
        let (backend, corpus) = small_setup();
        let sp = &corpus.speakers[0];
        let utts = corpus.of_speaker(sp.id);
        let enroll: Vec<&[f64]> = utts[..2].iter().map(|u| u.audio.as_slice()).collect();
        let model = backend.enroll(sp.id, &enroll);
        assert!(model.znorm.is_some(), "cohort attached → znorm computed");
        // Impostor z-scores should hover near 0 with unit-ish scale.
        let mut imp = Vec::new();
        for other in &corpus.speakers[1..] {
            for u in corpus.of_speaker(other.id) {
                imp.push(backend.score(&model, &u.audio));
            }
        }
        let mean = imp.iter().sum::<f64>() / imp.len() as f64;
        assert!(mean.abs() < 1.5, "impostor z-mean {mean}");
    }

    #[test]
    fn no_cohort_means_raw_scores() {
        let (backend, corpus) = small_setup();
        let bare = UbmBackend::new(backend.extractor.clone(), backend.ubm.clone());
        let sp = &corpus.speakers[0];
        let utts = corpus.of_speaker(sp.id);
        let enroll: Vec<&[f64]> = utts[..2].iter().map(|u| u.audio.as_slice()).collect();
        let model = bare.enroll(sp.id, &enroll);
        assert!(model.znorm.is_none());
    }

    #[test]
    fn genuine_ref_is_in_the_served_models_znorm_units() {
        // `calibrated_threshold` is compared with `normalize(raw)`, so the
        // leave-one-out reference must be normalized with the served
        // model's cohort statistics, not those of each leave-one-out model.
        let (backend, corpus) = small_setup();
        let sp = &corpus.speakers[0];
        let utts = corpus.of_speaker(sp.id);
        let enroll: Vec<&[f64]> = utts[..3].iter().map(|u| u.audio.as_slice()).collect();
        let model = backend.enroll(sp.id, &enroll);
        assert!(model.znorm.is_some(), "cohort attached → znorm computed");
        let frames: Vec<FrameMatrix> = enroll
            .iter()
            .map(|a| backend.extractor.extract(a))
            .collect();
        let mut scratch = ScoreScratch::new();
        let mut sum = 0.0;
        for (i, held_out) in frames.iter().enumerate() {
            let mut rest = FrameMatrix::new(held_out.cols());
            for (_, f) in frames.iter().enumerate().filter(|&(j, _)| j != i) {
                rest.extend_rows(f);
            }
            let sub = PreparedGmm::new(&backend.ubm.map_adapt_means(&rest, RELEVANCE_FACTOR));
            let raw = sub.mean_log_likelihood(held_out, &mut scratch)
                - backend
                    .prepared_ubm()
                    .mean_log_likelihood(held_out, &mut scratch);
            sum += model.normalize(raw);
        }
        let want = sum / frames.len() as f64;
        assert_eq!(
            model.genuine_ref.map(f64::to_bits),
            Some(want.to_bits()),
            "genuine_ref {:?} vs served-unit mean {want}",
            model.genuine_ref
        );
    }

    #[test]
    fn adaptation_moves_model_toward_speaker() {
        let (backend, corpus) = small_setup();
        let sp = &corpus.speakers[0];
        let utts = corpus.of_speaker(sp.id);
        let enroll: Vec<&[f64]> = utts[..2].iter().map(|u| u.audio.as_slice()).collect();
        let model = backend.enroll(sp.id, &enroll);
        let moved = model
            .gmm
            .means()
            .iter()
            .zip(backend.ubm.means())
            .any(|(a, b)| a.iter().zip(b).any(|(x, y)| (x - y).abs() > 1e-6));
        assert!(moved, "MAP adaptation should move at least one mean");
        assert!(backend.score(&model, &utts[0].audio) > 0.0);
    }

    #[test]
    fn fast_path_score_matches_reference_path() {
        let (backend, corpus) = small_setup();
        let sp = &corpus.speakers[0];
        let utts = corpus.of_speaker(sp.id);
        let enroll: Vec<&[f64]> = utts[..2].iter().map(|u| u.audio.as_slice()).collect();
        let model = backend.enroll(sp.id, &enroll);
        for u in utts {
            let frames = backend.extractor.extract(&u.audio);
            let reference = model.normalize(model.gmm.llr_score(&backend.ubm, &frames));
            let exact = backend.score_detailed_opts(&model, &u.audio, 0, false);
            assert!(
                (exact.z - reference).abs() < 1e-9,
                "fast {} vs reference {reference}",
                exact.z
            );
            assert_eq!(exact.pruned_components, 0);
            assert_eq!(exact.frames, frames.rows());
            // Pruned scoring never exceeds exact (subset log-sum) and
            // accounts for exactly (k − C) skips per frame.
            let pruned = backend.score_detailed_opts(&model, &u.audio, 4, false);
            let sigma = model.znorm.map_or(1.0, |(_, s)| s);
            assert!(pruned.z <= exact.z + 1e-9 / sigma);
            assert_eq!(pruned.pruned_components, (frames.rows() * (16 - 4)) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "no frames")]
    fn enroll_rejects_empty_audio() {
        let (backend, _) = small_setup();
        backend.enroll(0, &[&[]]);
    }

    mod codec_round_trip {
        use super::*;
        use magshield_ml::codec::{assert_hostile_input_fails, BinaryCodec, CodecError};
        use magshield_simkit::prop::prelude::*;

        fn assert_speaker_models_equal(a: &SpeakerModel, b: &SpeakerModel) {
            assert_eq!(a.speaker_id, b.speaker_id);
            assert_eq!(a.gmm, b.gmm);
            assert_eq!(a.znorm, b.znorm);
            assert_eq!(a.genuine_ref, b.genuine_ref);
        }

        fn assert_backends_equal(a: &UbmBackend, b: &UbmBackend) {
            assert_eq!(a.extractor.sample_rate(), b.extractor.sample_rate());
            assert_eq!(a.extractor.dim(), b.extractor.dim());
            assert_eq!(a.ubm, b.ubm);
            assert_eq!(a.cohort, b.cohort);
        }

        #[test]
        fn trained_backend_and_model_round_trip_exactly() {
            let (backend, corpus) = small_setup();
            let back = UbmBackend::from_bytes(&backend.to_bytes()).unwrap();
            assert_backends_equal(&backend, &back);

            let sp = &corpus.speakers[0];
            let utts = corpus.of_speaker(sp.id);
            let enroll: Vec<&[f64]> = utts[..2].iter().map(|u| u.audio.as_slice()).collect();
            let model = backend.enroll(sp.id, &enroll);
            let model_back = SpeakerModel::from_bytes(&model.to_bytes()).unwrap();
            assert_speaker_models_equal(&model, &model_back);

            // The decoded pair scores bit-identically to the original.
            for u in utts {
                assert_eq!(
                    backend.score(&model, &u.audio),
                    back.score(&model_back, &u.audio)
                );
            }
        }

        #[test]
        fn cohort_utterance_round_trips() {
            let (backend, _) = small_setup();
            for c in backend.cohort() {
                let back = CohortUtterance::from_bytes(&c.to_bytes()).unwrap();
                assert_eq!(&back, c);
            }
        }

        #[test]
        fn extractor_round_trips() {
            let fx = FeatureExtractor::new(22_050.0);
            let back = FeatureExtractor::from_bytes(&fx.to_bytes()).unwrap();
            assert_eq!(back.sample_rate(), fx.sample_rate());
            assert_eq!(back.dim(), fx.dim());
            assert_eq!(back.to_bytes(), fx.to_bytes());
        }

        #[test]
        fn hostile_input_yields_typed_errors() {
            let (backend, corpus) = small_setup();
            assert_hostile_input_fails::<FeatureExtractor>(&backend.extractor.to_bytes());
            let sp = &corpus.speakers[0];
            let utts = corpus.of_speaker(sp.id);
            let enroll: Vec<&[f64]> = utts[..2].iter().map(|u| u.audio.as_slice()).collect();
            let model = backend.enroll(sp.id, &enroll);
            assert_hostile_input_fails::<SpeakerModel>(&model.to_bytes());
            // The full backend frame is large; bit-flipping every byte of
            // it would dominate the suite, so fuzz a truncated-cohort
            // backend instead — same code paths, bounded size.
            let small = UbmBackend::new(backend.extractor.clone(), backend.ubm.clone());
            assert_hostile_input_fails::<UbmBackend>(&small.to_bytes());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn speaker_model_round_trips(seed in 0u64..u64::MAX, id in 0u32..u32::MAX) {
                let mut rng = SimRng::from_seed(seed);
                let k = 1 + (seed % 3) as usize;
                let dim = 1 + (seed % 4) as usize;
                let raw: Vec<f64> = (0..k).map(|_| rng.uniform(0.1, 1.0)).collect();
                let sum: f64 = raw.iter().sum();
                let gmm = DiagonalGmm::from_parameters(
                    raw.iter().map(|w| w / sum).collect(),
                    (0..k).map(|_| (0..dim).map(|_| rng.gauss(0.0, 2.0)).collect()).collect(),
                    (0..k).map(|_| (0..dim).map(|_| rng.uniform(0.01, 3.0)).collect()).collect(),
                );
                let znorm = if seed % 2 == 0 {
                    Some((rng.gauss(0.0, 1.0), rng.uniform(0.1, 2.0)))
                } else {
                    None
                };
                let genuine_ref = if seed % 3 == 0 { Some(rng.gauss(2.0, 1.0)) } else { None };
                let model = SpeakerModel::new(id, gmm, znorm, genuine_ref);
                let back = SpeakerModel::from_bytes(&model.to_bytes()).unwrap();
                assert_speaker_models_equal(&model, &back);
            }
        }

        #[test]
        fn oversized_cohort_is_invalid() {
            // Craft a backend frame claiming more cohort utterances than
            // MAX_COHORT: must be rejected before any are decoded.
            let fx = FeatureExtractor::new(16_000.0);
            let ubm = DiagonalGmm::from_parameters(vec![1.0], vec![vec![0.0]], vec![vec![1.0]]);
            let mut w = ByteWriter::new();
            w.put_artifact(&fx);
            w.put_artifact(&ubm);
            w.put_len(MAX_COHORT + 1);
            let payload = w.into_bytes();
            let mut r = ByteReader::new(&payload);
            assert!(matches!(
                UbmBackend::decode_payload(&mut r),
                Err(CodecError::Invalid { .. })
            ));
        }
    }
}
