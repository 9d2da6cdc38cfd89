//! Versioned model artifacts: the training → serving hand-off format.
//!
//! A [`ModelBundle`] is everything a server needs to verify sessions —
//! the ASV engine, the enrolled speaker models, the sound-field
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
use crate::components::speaker_id::AsvEngine;
use crate::config::{ConfigError, DefenseConfig};
use crate::registry::ModelSnapshot;
use magshield_asv::model::SpeakerModel;
use magshield_ml::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};
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
    /// Whether the ISV backend was trained instead of plain GMM–UBM.
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
        Ok(Self {
            producer: r.get_string()?,
            ubm_speakers: r.get_u32()?,
            ubm_components: r.get_u32()?,
            em_iters: r.get_u32()?,
            use_isv: r.get_bool()?,
            notes: r.get_string()?,
        })
    }
}

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
    /// The ASV backend.
    pub engine: AsvEngine,
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
            engine: AsvEngine::clone(&snapshot.engine),
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
        w.put_artifact(&self.engine);
        w.put_len(self.speakers.len());
        for m in &self.speakers {
            w.put_artifact(m);
        }
        w.put_artifact(&self.sound_field);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let meta = BundleMeta::decode(r)?;
        let config = DefenseConfig::from_bytes(r.get_nested()?)?;
        let engine = AsvEngine::from_bytes(r.get_nested()?)?;
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
mod tests {
    use super::*;
    use crate::config::ConfigError;

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
