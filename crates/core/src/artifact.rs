//! Versioned model artifacts: the training → serving hand-off format.
//!
//! A [`ModelBundle`] is everything a server needs to verify sessions —
//! the GMM–UBM ASV backend, the enrolled speaker models, the sound-field
//! classifier and the thresholds they were validated against — plus
//! [`BundleMeta`] provenance describing how it was trained. Bundles are
//! produced offline by [`Trainer::train`](crate::trainer::Trainer::train),
//! serialized through the workspace's checksummed binary codec
//! ([`BinaryCodec`], magic `MBDL`), and loaded into a serving process via
//! [`DefenseSystem::from_bundle`](crate::pipeline::DefenseSystem::from_bundle)
//! or hot-swapped into a live one via
//! [`DefenseSystem::try_swap_bundle`](crate::pipeline::DefenseSystem::try_swap_bundle).
//!
//! The codec guarantees (see [`magshield_ml::codec`]) make bundle files
//! safe to load from untrusted storage: corruption, truncation, version
//! skew and semantic invalid states (duplicate speakers, bin mismatches)
//! all surface as typed errors, never as panics or silently wrong models.

use crate::components::sound_field::SoundFieldModel;
use crate::config::{ConfigError, DefenseConfig};
use crate::registry::ModelSnapshot;
use magshield_asv::model::{SpeakerModel, UbmBackend};
use magshield_ml::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};
use std::borrow::Cow;
use std::sync::Arc;

/// Provenance of a trained bundle: who produced it and the training
/// sizing it came from.
///
/// Deliberately timestamp-free so that training with a fixed seed yields
/// byte-identical bundles — the artifact-compatibility CI job depends on
/// golden bundles being reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleMeta {
    /// Tool (or test) that produced the bundle.
    pub producer: String,
    /// Speakers in the UBM training corpus.
    pub ubm_speakers: u32,
    /// UBM mixture components.
    pub ubm_components: u32,
    /// EM iterations the UBM was trained for.
    pub em_iters: u32,
    /// Provenance flag for an ISV-trained engine. Always `false`: the
    /// served engine is GMM–UBM, so a bundle that sets the flag (like one
    /// carrying an ISV engine) is refused at decode. The byte stays in
    /// the encoding so existing bundles keep their bytes.
    pub use_isv: bool,
    /// Free-form notes (deployment labels, experiment ids).
    pub notes: String,
}

impl BundleMeta {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_string(&self.producer);
        w.put_u32(self.ubm_speakers);
        w.put_u32(self.ubm_components);
        w.put_u32(self.em_iters);
        w.put_bool(self.use_isv);
        w.put_string(&self.notes);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let meta = Self {
            producer: r.get_string()?,
            ubm_speakers: r.get_u32()?,
            ubm_components: r.get_u32()?,
            em_iters: r.get_u32()?,
            use_isv: r.get_bool()?,
            notes: r.get_string()?,
        };
        if meta.use_isv {
            return Err(CodecError::Invalid {
                artifact: ModelBundle::NAME,
                reason: ISV_PROVENANCE.to_string(),
            });
        }
        Ok(meta)
    }
}

/// The `MENG` envelope a bundle wraps its ASV backend in: a kind byte,
/// then the nested backend artifact. Kind [`UBM_ENGINE`] is GMM–UBM, the
/// one backend served. Kind [`ISV_ENGINE`] was the ISV backend, which
/// bundles no longer carry; it is refused, never read as GMM–UBM.
struct EngineFrame<'a>(Cow<'a, UbmBackend>);

/// `MENG` kind byte of a GMM–UBM engine.
const UBM_ENGINE: u8 = 0;
/// `MENG` kind byte of an ISV engine (refused).
const ISV_ENGINE: u8 = 1;

impl BinaryCodec for EngineFrame<'_> {
    const MAGIC: u32 = codec::magic(b"MENG");
    const VERSION: u8 = 1;
    const NAME: &'static str = "ASV engine";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_u8(UBM_ENGINE);
        w.put_artifact(&*self.0);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            UBM_ENGINE => Ok(Self(Cow::Owned(UbmBackend::from_bytes(r.get_nested()?)?))),
            ISV_ENGINE => Err(CodecError::Invalid {
                artifact: Self::NAME,
                reason: ISV_NOT_SERVED.to_string(),
            }),
            found => Err(CodecError::BadTag {
                what: "ASV engine kind",
                found,
            }),
        }
    }
}

/// Why a bundle carrying an ISV engine is refused.
const ISV_NOT_SERVED: &str = "ISV engines are no longer served; retrain with GMM–UBM";

/// Why a bundle whose `BundleMeta::use_isv` is set is refused.
const ISV_PROVENANCE: &str =
    "BundleMeta::use_isv is set, but only GMM–UBM engines are served; retrain with GMM–UBM";

/// A complete, immutable set of trained serving models.
///
/// The unit of training, persistence and hot-swap: a bundle is produced
/// whole, validated whole ([`ModelBundle::validate`]) and swapped whole,
/// so a server can never end up serving an engine from one training run
/// with speaker models from another.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// Provenance.
    pub meta: BundleMeta,
    /// The thresholds this model set was trained/validated against.
    pub config: DefenseConfig,
    /// The GMM–UBM ASV backend.
    pub engine: UbmBackend,
    /// Enrolled speaker models. May be empty: a multi-tenant server can
    /// boot from a speaker-less bundle and enroll tenants online.
    pub speakers: Vec<SpeakerModel>,
    /// The sound-field classifier.
    pub sound_field: SoundFieldModel,
}

impl ModelBundle {
    /// Checks the bundle is servable: valid thresholds, no duplicate
    /// speaker ids, and a sound-field model whose angle-bin count matches
    /// what the config will feed it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()?;
        let mut seen = std::collections::HashSet::with_capacity(self.speakers.len());
        for m in &self.speakers {
            if !seen.insert(m.speaker_id) {
                return Err(ConfigError::DuplicateSpeaker {
                    speaker_id: m.speaker_id,
                });
            }
        }
        if self.sound_field.bins() != self.config.sound_field_bins {
            return Err(ConfigError::MismatchedSoundFieldBins {
                config: self.config.sound_field_bins,
                model: self.sound_field.bins(),
            });
        }
        Ok(())
    }

    /// Converts the bundle into a registry snapshot (consuming it).
    pub fn into_snapshot(self) -> ModelSnapshot {
        ModelSnapshot {
            config: self.config,
            engine: Arc::new(self.engine),
            speakers: self
                .speakers
                .into_iter()
                .map(|m| (m.speaker_id, Arc::new(m)))
                .collect(),
            sound_field: Arc::new(self.sound_field),
        }
    }

    /// Rebuilds a bundle from a live registry snapshot — how a server
    /// exports its current serving state (e.g. to persist online
    /// enrollments, or to derive a tweaked bundle for a hot-swap test)
    /// without retraining. Speakers are ordered by id so the result is
    /// deterministic.
    pub fn from_snapshot(meta: BundleMeta, snapshot: &ModelSnapshot) -> Self {
        let mut speakers: Vec<SpeakerModel> =
            snapshot.speakers.values().map(|m| (**m).clone()).collect();
        speakers.sort_by_key(|m| m.speaker_id);
        Self {
            meta,
            config: snapshot.config,
            engine: UbmBackend::clone(&snapshot.engine),
            speakers,
            sound_field: SoundFieldModel::clone(&snapshot.sound_field),
        }
    }
}

impl BinaryCodec for ModelBundle {
    const MAGIC: u32 = codec::magic(b"MBDL");
    const VERSION: u8 = 1;
    const NAME: &'static str = "ModelBundle";

    fn encode_payload(&self, w: &mut ByteWriter) {
        self.meta.encode(w);
        w.put_artifact(&self.config);
        w.put_artifact(&EngineFrame(Cow::Borrowed(&self.engine)));
        w.put_len(self.speakers.len());
        for m in &self.speakers {
            w.put_artifact(m);
        }
        w.put_artifact(&self.sound_field);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let meta = BundleMeta::decode(r)?;
        let config = DefenseConfig::from_bytes(r.get_nested()?)?;
        let engine = EngineFrame::from_bytes(r.get_nested()?)?.0.into_owned();
        let n = r.get_len()?;
        let mut speakers = Vec::new();
        for _ in 0..n {
            speakers.push(SpeakerModel::from_bytes(r.get_nested()?)?);
        }
        let sound_field = SoundFieldModel::from_bytes(r.get_nested()?)?;
        let bundle = Self {
            meta,
            config,
            engine,
            speakers,
            sound_field,
        };
        bundle.validate().map_err(|e| CodecError::Invalid {
            artifact: Self::NAME,
            reason: e.to_string(),
        })?;
        Ok(bundle)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ConfigError;

    /// `bundle` (encoded bundle bytes) with its `MENG` kind byte set to
    /// `kind`, both checksums re-sealed so only the kind differs.
    pub(crate) fn with_engine_kind(bundle: &[u8], kind: u8) -> Vec<u8> {
        const HEADER: usize = 9;
        const CHECKSUM: usize = 8;
        let payload = &bundle[HEADER..bundle.len() - CHECKSUM];
        let mut r = ByteReader::new(payload);
        BundleMeta::decode(&mut r).unwrap();
        r.get_nested().unwrap();
        let engine_at = HEADER + payload.len() - r.remaining() + 4;
        let engine_end = engine_at + r.get_len().unwrap();
        let mut out = bundle.to_vec();
        out[engine_at + HEADER] = kind;
        let seal = |out: &mut Vec<u8>, start: usize, end: usize| {
            let sum = codec::fnv1a_64(&out[start..end - CHECKSUM]);
            out[end - CHECKSUM..end].copy_from_slice(&sum.to_le_bytes());
        };
        seal(&mut out, engine_at, engine_end);
        let n = out.len();
        seal(&mut out, 0, n);
        out
    }

    fn fixture_bundle() -> ModelBundle {
        let (sys, _) = crate::test_support::shared_tiny_system();
        ModelBundle::from_snapshot(test_meta(), &sys.models())
    }

    fn test_meta() -> BundleMeta {
        BundleMeta {
            producer: "artifact-tests".to_string(),
            ubm_speakers: 3,
            ubm_components: 8,
            em_iters: 4,
            use_isv: false,
            notes: String::new(),
        }
    }

    #[test]
    fn bundle_round_trips_byte_identically() {
        let bundle = fixture_bundle();
        let bytes = bundle.to_bytes();
        let back = ModelBundle::from_bytes(&bytes).unwrap();
        assert_eq!(back.meta, bundle.meta);
        assert_eq!(back.config, bundle.config);
        assert_eq!(back.sound_field, bundle.sound_field);
        assert_eq!(back.speakers.len(), bundle.speakers.len());
        // Encoding is deterministic, so re-encoding proves deep equality
        // even for types without PartialEq (the engine).
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn engine_kind_byte_gates_decode() {
        let bytes = fixture_bundle().to_bytes();
        // Kind 0 is what encoding writes: re-sealing it changes nothing.
        assert_eq!(with_engine_kind(&bytes, 0), bytes);
        assert!(matches!(
            ModelBundle::from_bytes(&with_engine_kind(&bytes, 1)),
            Err(CodecError::Invalid { artifact: "ASV engine", reason }) if reason == ISV_NOT_SERVED
        ));
        assert!(matches!(
            ModelBundle::from_bytes(&with_engine_kind(&bytes, 7)),
            Err(CodecError::BadTag {
                what: "ASV engine kind",
                found: 7
            })
        ));
    }

    #[test]
    fn isv_provenance_is_refused_at_decode() {
        let mut bundle = fixture_bundle();
        bundle.meta.use_isv = true;
        assert!(matches!(
            ModelBundle::from_bytes(&bundle.to_bytes()),
            Err(CodecError::Invalid { artifact: "ModelBundle", reason }) if reason == ISV_PROVENANCE
        ));
    }

    #[test]
    fn encoding_is_reproducible() {
        let bundle = fixture_bundle();
        assert_eq!(bundle.to_bytes(), fixture_bundle().to_bytes());
    }

    #[test]
    fn duplicate_speakers_fail_validation_and_decode() {
        let mut bundle = fixture_bundle();
        let dup = bundle.speakers[0].clone();
        bundle.speakers.push(dup);
        let id = bundle.speakers[0].speaker_id;
        assert_eq!(
            bundle.validate(),
            Err(ConfigError::DuplicateSpeaker { speaker_id: id })
        );
        assert!(matches!(
            ModelBundle::from_bytes(&bundle.to_bytes()),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn bin_mismatch_fails_validation() {
        let mut bundle = fixture_bundle();
        bundle.config.sound_field_bins = bundle.sound_field.bins() + 4;
        assert!(matches!(
            bundle.validate(),
            Err(ConfigError::MismatchedSoundFieldBins { .. })
        ));
    }

    #[test]
    fn speakerless_bundle_is_valid() {
        let mut bundle = fixture_bundle();
        bundle.speakers.clear();
        assert!(bundle.validate().is_ok());
        let back = ModelBundle::from_bytes(&bundle.to_bytes()).unwrap();
        assert!(back.speakers.is_empty());
    }

    #[test]
    fn truncation_yields_typed_errors() {
        // Full single-bit fuzz over a multi-hundred-KB bundle is done at
        // the leaf-artifact level; here every truncation point of the
        // envelope-bearing prefix must fail cleanly.
        let bytes = fixture_bundle().to_bytes();
        for cut in 0..64.min(bytes.len()) {
            assert!(ModelBundle::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(ModelBundle::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
