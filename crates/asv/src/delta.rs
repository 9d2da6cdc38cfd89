//! Delta speaker records: kilobyte enrollment artifacts.
//!
//! An enrolled [`SpeakerModel`] is a MAP-adapted copy of the UBM —
//! [`UbmBackend::enroll`](crate::model::UbmBackend::enroll) calls
//! `map_adapt_means`, which only moves the component means. Serializing
//! the full model therefore re-ships the UBM's weights and variances
//! with every enrollment, and a serving bundle re-export re-ships the
//! whole backend. A
//! [`DeltaSpeakerRecord`] instead stores the speaker's scalar metadata
//! (id, Z-norm statistics, genuine reference) plus a sparse
//! [`GmmMeanDelta`] against the UBM, reconstructing a **bit-identical**
//! `SpeakerModel` at decode time. This is what makes the durable
//! store's write-ahead log (and future replica sync) cost kilobytes per
//! enrollment instead of megabytes.

use crate::model::SpeakerModel;
use magshield_ml::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};
use magshield_ml::delta::{DeltaError, GmmMeanDelta};
use magshield_ml::gmm::DiagonalGmm;

/// A [`SpeakerModel`] expressed as a delta against the UBM it was
/// adapted from (magic `MSPD`).
///
/// Encode with [`DeltaSpeakerRecord::encode`]; reconstruct with
/// [`DeltaSpeakerRecord::reconstruct`] against the same UBM — the
/// result is bit-identical to the original model (every weight, mean
/// and variance compares equal under `to_bits()`). Models that are not
/// means-only adaptations of the given UBM refuse to delta-encode; the
/// caller falls back to the full [`SpeakerModel`] codec.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSpeakerRecord {
    /// Claimed identity, mirrored from [`SpeakerModel::speaker_id`].
    pub speaker_id: u32,
    /// Z-norm statistics, mirrored from [`SpeakerModel::znorm`].
    pub znorm: Option<(f64, f64)>,
    /// Genuine reference, mirrored from [`SpeakerModel::genuine_ref`].
    pub genuine_ref: Option<f64>,
    /// Sparse mean delta of the adapted mixture against the UBM.
    pub delta: GmmMeanDelta,
}

impl DeltaSpeakerRecord {
    /// Encodes `model` as a delta record against `ubm`.
    ///
    /// Fails (so the caller can fall back to a full record) when the
    /// model's mixture is not a means-only adaptation of `ubm`.
    pub fn encode(ubm: &DiagonalGmm, model: &SpeakerModel) -> Result<Self, DeltaError> {
        Ok(Self {
            speaker_id: model.speaker_id,
            znorm: model.znorm,
            genuine_ref: model.genuine_ref,
            delta: GmmMeanDelta::encode(ubm, &model.gmm)?,
        })
    }

    /// Reconstructs the original [`SpeakerModel`], bit-identical to the
    /// one passed to [`DeltaSpeakerRecord::encode`]. The UBM must be the
    /// exact prior the record was encoded against (fingerprint-checked).
    pub fn reconstruct(&self, ubm: &DiagonalGmm) -> Result<SpeakerModel, DeltaError> {
        Ok(SpeakerModel::new(
            self.speaker_id,
            self.delta.apply(ubm)?,
            self.znorm,
            self.genuine_ref,
        ))
    }
}

impl BinaryCodec for DeltaSpeakerRecord {
    const MAGIC: u32 = codec::magic(b"MSPD");
    const VERSION: u8 = 1;
    const NAME: &'static str = "DeltaSpeakerRecord";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_u32(self.speaker_id);
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
        w.put_artifact(&self.delta);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let speaker_id = r.get_u32()?;
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
        let delta = GmmMeanDelta::from_bytes(r.get_nested()?)?;
        Ok(Self {
            speaker_id,
            znorm,
            genuine_ref,
            delta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::FeatureExtractor;
    use crate::ubm::{train_ubm, UbmConfig};
    use crate::UbmBackend;
    use magshield_dsp::frame::FrameMatrix;
    use magshield_ml::codec::assert_hostile_input_fails;
    use magshield_simkit::prop::prelude::*;
    use magshield_simkit::rng::SimRng;
    use magshield_voice::corpus::{build_corpus, CorpusConfig};
    use magshield_voice::synth::VOICE_SAMPLE_RATE;

    fn backend_and_corpus(
        num_speakers: usize,
        components: usize,
        seed: u64,
    ) -> (UbmBackend, magshield_voice::corpus::Corpus) {
        let rng = SimRng::from_seed(seed);
        let corpus = build_corpus(
            &CorpusConfig {
                num_speakers,
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
                components,
                em_iters: 4,
                max_frames: 4000,
            },
            &rng,
        );
        let backend = UbmBackend::new(fx, ubm).with_cohort(&utts);
        (backend, corpus)
    }

    fn assert_bit_identical(a: &SpeakerModel, b: &SpeakerModel) {
        assert_eq!(a.speaker_id, b.speaker_id);
        assert_eq!(
            a.znorm.map(|(m, s)| (m.to_bits(), s.to_bits())),
            b.znorm.map(|(m, s)| (m.to_bits(), s.to_bits()))
        );
        assert_eq!(
            a.genuine_ref.map(f64::to_bits),
            b.genuine_ref.map(f64::to_bits)
        );
        for (x, y) in a.gmm.weights().iter().zip(b.gmm.weights()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (ra, rb) in a.gmm.means().iter().zip(b.gmm.means()) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (ra, rb) in a.gmm.variances().iter().zip(b.gmm.variances()) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn enrolled_speaker_round_trips_bit_identically_and_shrinks() {
        let (backend, corpus) = backend_and_corpus(3, 16, 31);
        let sp = &corpus.speakers[0];
        let utts = corpus.of_speaker(sp.id);
        let enroll: Vec<&[f64]> = utts[..2].iter().map(|u| u.audio.as_slice()).collect();
        let model = backend.enroll(sp.id, &enroll);

        let record = DeltaSpeakerRecord::encode(&backend.ubm, &model).unwrap();
        let wire = DeltaSpeakerRecord::from_bytes(&record.to_bytes()).unwrap();
        let back = wire.reconstruct(&backend.ubm).unwrap();
        assert_bit_identical(&model, &back);

        // The reconstructed model scores bit-identically.
        for u in utts {
            assert_eq!(
                backend.score(&model, &u.audio).to_bits(),
                backend.score(&back, &u.audio).to_bits()
            );
        }

        // The record is materially smaller than the full model — it drops
        // the weights and variances the UBM already carries.
        let full = model.to_bytes().len();
        let delta = record.to_bytes().len();
        assert!(
            delta * 2 < full,
            "delta record {delta}B not smaller than full model {full}B"
        );
    }

    #[test]
    fn wrong_ubm_is_refused() {
        let (backend, corpus) = backend_and_corpus(3, 8, 32);
        let (other, _) = backend_and_corpus(3, 8, 33);
        let sp = &corpus.speakers[0];
        let enroll: Vec<&[f64]> = corpus.of_speaker(sp.id)[..2]
            .iter()
            .map(|u| u.audio.as_slice())
            .collect();
        let model = backend.enroll(sp.id, &enroll);
        let record = DeltaSpeakerRecord::encode(&backend.ubm, &model).unwrap();
        assert!(matches!(
            record.reconstruct(&other.ubm),
            Err(DeltaError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn non_adapted_model_refuses_delta_encoding() {
        let (backend, _) = backend_and_corpus(3, 8, 34);
        let (other, _) = backend_and_corpus(3, 8, 35);
        // A model whose mixture is a *different* UBM (weights/variances
        // differ) is not a means-only adaptation: full-record fallback.
        let foreign = SpeakerModel::new(7, other.ubm.clone(), None, None);
        assert_eq!(
            DeltaSpeakerRecord::encode(&backend.ubm, &foreign),
            Err(DeltaError::NotMeansOnly)
        );
    }

    #[test]
    fn hostile_input_yields_typed_errors() {
        let (backend, corpus) = backend_and_corpus(3, 8, 36);
        let sp = &corpus.speakers[0];
        let enroll: Vec<&[f64]> = corpus.of_speaker(sp.id)[..2]
            .iter()
            .map(|u| u.audio.as_slice())
            .collect();
        let model = backend.enroll(sp.id, &enroll);
        let record = DeltaSpeakerRecord::encode(&backend.ubm, &model).unwrap();
        assert_hostile_input_fails::<DeltaSpeakerRecord>(&record.to_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Delta-encode → wire → decode → reconstruct is bit-identical
        /// across mixture sizes, corpus shapes and adaptation strengths
        /// (more enrollment audio adapts the model more strongly).
        #[test]
        fn delta_records_reconstruct_bit_identically(
            seed in 0u64..u64::MAX,
            components_pow in 2u32..5,
            enroll_utts in 1usize..4,
        ) {
            let components = 1usize << components_pow; // 4, 8 or 16
            let (backend, corpus) = backend_and_corpus(3, components, seed);
            for sp in &corpus.speakers {
                let utts = corpus.of_speaker(sp.id);
                let n = enroll_utts.min(utts.len());
                let enroll: Vec<&[f64]> =
                    utts[..n].iter().map(|u| u.audio.as_slice()).collect();
                let model = backend.enroll(sp.id, &enroll);
                let record = DeltaSpeakerRecord::encode(&backend.ubm, &model).unwrap();
                let wire = DeltaSpeakerRecord::from_bytes(&record.to_bytes()).unwrap();
                let back = wire.reconstruct(&backend.ubm).unwrap();
                assert_bit_identical(&model, &back);
            }
        }
    }
}
