//! Defense thresholds and tuning.

use crate::verdict::Component;
use magshield_ml::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};
use std::fmt;

/// Typed rejection from [`DefenseConfig::validate`] and
/// [`ModelBundle::validate`](crate::artifact::ModelBundle::validate) —
/// every way a threshold set or a trained bundle can be unusable for
/// serving.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `distance_threshold_m` (`Dt`) must be strictly positive.
    NonPositiveDistanceThreshold {
        /// The offending threshold (m).
        value: f64,
    },
    /// `mag_deviation_ut` (`Mt`) and `mag_rate_ut_per_s` (`βt`) must both
    /// be strictly positive.
    NonPositiveMagThresholds {
        /// The configured magnitude-deviation threshold (µT).
        deviation_ut: f64,
        /// The configured changing-rate threshold (µT/s).
        rate_ut_per_s: f64,
    },
    /// A scalar threshold is NaN or infinite.
    NonFiniteThreshold {
        /// The `DefenseConfig` field holding it.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A scale, slack or calibration threshold that only makes sense
    /// positive (`distance_tolerance`, `min_approach_m`,
    /// `pilot_ranging_gain_m`, `max_sweep_ripple_m`, `asv_scale`) is zero
    /// or negative: it would disable its check or invert its score.
    NonPositiveThreshold {
        /// The `DefenseConfig` field holding it.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `sound_field_bins` is below the minimum of 4 angle bins.
    TooFewSoundFieldBins {
        /// The configured bin count.
        bins: usize,
    },
    /// A per-stage decision-boundary multiplier is non-finite or
    /// non-positive.
    BadStageBoundary {
        /// The stage with the offending boundary.
        stage: Component,
        /// The offending boundary value.
        value: f64,
    },
    /// A model bundle enrolls the same speaker id more than once.
    DuplicateSpeaker {
        /// The repeated speaker id.
        speaker_id: u32,
    },
    /// A bundle's sound-field model was trained with a different angle-bin
    /// count than its config requests at verification time, so the
    /// feature vectors would disagree with the classifier.
    MismatchedSoundFieldBins {
        /// Bins requested by the bundle's [`DefenseConfig`].
        config: usize,
        /// Bins the bundled sound-field model was trained with.
        model: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonPositiveDistanceThreshold { value } => {
                write!(f, "distance threshold must be positive (got {value})")
            }
            Self::NonPositiveMagThresholds {
                deviation_ut,
                rate_ut_per_s,
            } => write!(
                f,
                "magnetometer thresholds must be positive (got Mt = {deviation_ut} µT, \
                 βt = {rate_ut_per_s} µT/s)"
            ),
            Self::NonFiniteThreshold { field, value } => {
                write!(f, "{field} must be finite (got {value})")
            }
            Self::NonPositiveThreshold { field, value } => {
                write!(f, "{field} must be positive (got {value})")
            }
            Self::TooFewSoundFieldBins { bins } => {
                write!(f, "need at least 4 sound-field bins (got {bins})")
            }
            Self::BadStageBoundary { stage, value } => write!(
                f,
                "stage boundary for {} must be positive (got {value})",
                stage.name()
            ),
            Self::DuplicateSpeaker { speaker_id } => {
                write!(f, "bundle enrolls speaker {speaker_id} more than once")
            }
            Self::MismatchedSoundFieldBins { config, model } => write!(
                f,
                "config asks for {config} sound-field bins but the bundled model \
                 was trained with {model}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Per-stage decision-boundary multipliers, indexed by
/// [`Component::index`].
///
/// Every stage emits a raw attack score normalized so 1.0 is its factory
/// decision boundary; the cascade executor divides each raw score by that
/// stage's boundary before comparing against 1.0. A boundary of 2.0 for
/// [`Component::Loudspeaker`] therefore doubles the magnetometer
/// tolerance (`Mt`, `βt`) without touching the physical threshold fields
/// — this is the per-stage knob the §VII adaptive-thresholding extension
/// turns (see [`crate::adaptive::adapted_config`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBoundaries([f64; Component::COUNT]);

impl Default for StageBoundaries {
    fn default() -> Self {
        Self([1.0; Component::COUNT])
    }
}

impl StageBoundaries {
    /// The same boundary for every stage.
    pub fn uniform(boundary: f64) -> Self {
        Self([boundary; Component::COUNT])
    }

    /// The boundary multiplier of one stage.
    pub fn get(&self, c: Component) -> f64 {
        self.0[c.index()]
    }

    /// Sets one stage's boundary multiplier.
    pub fn set(&mut self, c: Component, boundary: f64) {
        self.0[c.index()] = boundary;
    }

    /// Returns a copy with one stage's boundary scaled by `k`.
    #[must_use]
    pub fn scaled(mut self, c: Component, k: f64) -> Self {
        self.0[c.index()] *= k;
        self
    }
}

/// All tunable thresholds of the verification components.
///
/// Each component produces a normalized *attack score* where 1.0 marks its
/// decision boundary; the cascade accepts when every score is below the
/// boundary. Sweeping a global multiplier over the boundaries generates
/// the FAR/FRR trade-off curves of Figs. 12 and 14, and the per-stage
/// [`StageBoundaries`] let adaptive thresholding widen a single stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Sound-source distance threshold `Dt` (m). Paper: 6 cm.
    pub distance_threshold_m: f64,
    /// Multiplicative slack on `Dt` absorbing the trajectory estimator's
    /// ~2 cm error (the gate rejects when the *estimate* exceeds
    /// `Dt × distance_tolerance`).
    pub distance_tolerance: f64,
    /// Minimum approach displacement (m) the pilot phase must confirm
    /// (the user really moved the phone in).
    pub min_approach_m: f64,
    /// Pilot amplitude-ranging calibration `K` (m·amplitude): the phone
    /// emits the pilot at a factory-known level, so the received sweep
    /// amplitude maps to absolute distance as `d ≈ K / amp`. Calibrated
    /// per device model at manufacture.
    pub pilot_ranging_gain_m: f64,
    /// Maximum pilot distance-ripple during the sweep (m) before the
    /// session is flagged as an off-center (attack-geometry) source.
    pub max_sweep_ripple_m: f64,
    /// Magnetometer magnitude-deviation threshold `Mt` (µT above the
    /// session baseline).
    pub mag_deviation_ut: f64,
    /// Magnetometer changing-rate threshold `βt` (µT/s on the smoothed
    /// magnitude).
    pub mag_rate_ut_per_s: f64,
    /// ASV acceptance threshold in Z-norm units (standard deviations
    /// above the model's impostor-cohort score distribution).
    pub asv_threshold: f64,
    /// Scale for mapping ASV score margins into normalized attack scores.
    pub asv_scale: f64,
    /// Top-C Gaussian pruning for ASV scoring: per frame, the speaker
    /// model is evaluated only on the C UBM components with the highest
    /// weighted log-density (the UBM term stays exact). `0` disables
    /// pruning. The pruned score is a lower bound on the exact score, so
    /// pruning can only make the accept decision stricter.
    pub asv_top_c: usize,
    /// Score the ASV stage on the i16-mean quantized GMM pair
    /// (`QuantizedGmm`) instead of the exact `PreparedGmm` pair. The
    /// quantized models are derived deterministically from the exact
    /// ones at load time (no extra artifact); the LLR drift is bounded
    /// analytically (`magshield_ml::gmm::llr_drift_bound`) and the
    /// decision identity is property-tested, so flipping this on trades
    /// a few ULPs of score for a ~2× smaller hot working set. It is not
    /// faster: the quantized kernel measures about 0.8–0.9× the exact one
    /// (`llr_quantized_speedup` in `results/BENCH_kernels.json`). Off by
    /// default; the serving benchmark reads the flag, so removing the
    /// path waits for a change to that benchmark.
    pub asv_quantized: bool,
    /// Number of angle bins in the sound-field feature vector.
    pub sound_field_bins: usize,
    /// Per-stage decision-boundary multipliers (1.0 = factory boundary).
    pub stage_boundaries: StageBoundaries,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        Self {
            distance_threshold_m: 0.06,
            distance_tolerance: 1.5,
            min_approach_m: 0.05,
            pilot_ranging_gain_m: 0.0068,
            max_sweep_ripple_m: 0.012,
            mag_deviation_ut: 2.5,
            mag_rate_ut_per_s: 25.0,
            asv_threshold: 1.5,
            asv_scale: 1.5,
            asv_top_c: default_asv_top_c(),
            asv_quantized: false,
            sound_field_bins: 12,
            stage_boundaries: StageBoundaries::default(),
        }
    }
}

/// Default top-C: Reynolds-style GMM–UBM systems concentrate nearly all
/// of a frame's likelihood in a handful of components; 8 is conservative
/// for the 16–64-component mixtures used here.
fn default_asv_top_c() -> usize {
    8
}

impl DefenseConfig {
    /// Returns a copy with one stage's decision boundary set to
    /// `boundary` — the per-stage knob the adaptive-thresholding
    /// extension (§VII) turns. A boundary of `k` is equivalent to
    /// scaling that stage's physical thresholds by `k` (e.g. `Mt` and
    /// `βt` for [`Component::Loudspeaker`]).
    #[must_use]
    pub fn with_stage_boundary(mut self, c: Component, boundary: f64) -> Self {
        self.stage_boundaries.set(c, boundary);
        self
    }

    /// Sanity-checks threshold values: every scalar threshold finite,
    /// and every one that scales, slackens or calibrates a check strictly
    /// positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let scalars = [
            ("distance_threshold_m", self.distance_threshold_m),
            ("distance_tolerance", self.distance_tolerance),
            ("min_approach_m", self.min_approach_m),
            ("pilot_ranging_gain_m", self.pilot_ranging_gain_m),
            ("max_sweep_ripple_m", self.max_sweep_ripple_m),
            ("mag_deviation_ut", self.mag_deviation_ut),
            ("mag_rate_ut_per_s", self.mag_rate_ut_per_s),
            ("asv_threshold", self.asv_threshold),
            ("asv_scale", self.asv_scale),
        ];
        if let Some(&(field, value)) = scalars.iter().find(|(_, v)| !v.is_finite()) {
            return Err(ConfigError::NonFiniteThreshold { field, value });
        }
        if self.distance_threshold_m <= 0.0 {
            return Err(ConfigError::NonPositiveDistanceThreshold {
                value: self.distance_threshold_m,
            });
        }
        if self.mag_deviation_ut <= 0.0 || self.mag_rate_ut_per_s <= 0.0 {
            return Err(ConfigError::NonPositiveMagThresholds {
                deviation_ut: self.mag_deviation_ut,
                rate_ut_per_s: self.mag_rate_ut_per_s,
            });
        }
        let positive = [
            ("distance_tolerance", self.distance_tolerance),
            ("min_approach_m", self.min_approach_m),
            ("pilot_ranging_gain_m", self.pilot_ranging_gain_m),
            ("max_sweep_ripple_m", self.max_sweep_ripple_m),
            ("asv_scale", self.asv_scale),
        ];
        if let Some(&(field, value)) = positive.iter().find(|(_, v)| *v <= 0.0) {
            return Err(ConfigError::NonPositiveThreshold { field, value });
        }
        if self.sound_field_bins < 4 {
            return Err(ConfigError::TooFewSoundFieldBins {
                bins: self.sound_field_bins,
            });
        }
        for c in Component::all() {
            let b = self.stage_boundaries.get(c);
            if !b.is_finite() || b <= 0.0 {
                return Err(ConfigError::BadStageBoundary { stage: c, value: b });
            }
        }
        Ok(())
    }
}

/// Version 2 appends the `asv_quantized` flag byte; version-1 artifacts
/// (the committed golden bundle among them) still decode, defaulting the
/// flag to `false`.
impl BinaryCodec for DefenseConfig {
    const MAGIC: u32 = codec::magic(b"MCFG");
    const VERSION: u8 = 2;
    const MIN_VERSION: u8 = 1;
    const NAME: &'static str = "DefenseConfig";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_f64(self.distance_threshold_m);
        w.put_f64(self.distance_tolerance);
        w.put_f64(self.min_approach_m);
        w.put_f64(self.pilot_ranging_gain_m);
        w.put_f64(self.max_sweep_ripple_m);
        w.put_f64(self.mag_deviation_ut);
        w.put_f64(self.mag_rate_ut_per_s);
        w.put_f64(self.asv_threshold);
        w.put_f64(self.asv_scale);
        w.put_len(self.asv_top_c);
        w.put_len(self.sound_field_bins);
        for c in Component::all() {
            w.put_f64(self.stage_boundaries.get(c));
        }
        w.put_u8(self.asv_quantized as u8);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Self::decode_versioned_payload(Self::VERSION, r)
    }

    fn decode_versioned_payload(version: u8, r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let distance_threshold_m = r.get_f64()?;
        let distance_tolerance = r.get_f64()?;
        let min_approach_m = r.get_f64()?;
        let pilot_ranging_gain_m = r.get_f64()?;
        let max_sweep_ripple_m = r.get_f64()?;
        let mag_deviation_ut = r.get_f64()?;
        let mag_rate_ut_per_s = r.get_f64()?;
        let asv_threshold = r.get_f64()?;
        let asv_scale = r.get_f64()?;
        let asv_top_c = r.get_len()?;
        let sound_field_bins = r.get_len()?;
        let mut stage_boundaries = StageBoundaries::default();
        for c in Component::all() {
            stage_boundaries.set(c, r.get_f64()?);
        }
        let asv_quantized = if version >= 2 {
            match r.get_u8()? {
                0 => false,
                1 => true,
                found => {
                    return Err(CodecError::BadTag {
                        what: "asv_quantized flag",
                        found,
                    })
                }
            }
        } else {
            false
        };
        let cfg = Self {
            distance_threshold_m,
            distance_tolerance,
            min_approach_m,
            pilot_ranging_gain_m,
            max_sweep_ripple_m,
            mag_deviation_ut,
            mag_rate_ut_per_s,
            asv_threshold,
            asv_scale,
            asv_top_c,
            asv_quantized,
            sound_field_bins,
            stage_boundaries,
        };
        cfg.validate().map_err(|e| CodecError::Invalid {
            artifact: Self::NAME,
            reason: e.to_string(),
        })?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = DefenseConfig::default();
        assert!((c.distance_threshold_m - 0.06).abs() < 1e-12, "Dt = 6 cm");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn stage_boundaries_default_to_factory() {
        let c = DefenseConfig::default();
        for comp in Component::all() {
            assert_eq!(c.stage_boundaries.get(comp), 1.0);
        }
    }

    #[test]
    fn with_stage_boundary_touches_only_that_stage() {
        let c = DefenseConfig::default().with_stage_boundary(Component::Loudspeaker, 2.0);
        assert!((c.stage_boundaries.get(Component::Loudspeaker) - 2.0).abs() < 1e-12);
        for comp in Component::all() {
            if comp != Component::Loudspeaker {
                assert_eq!(c.stage_boundaries.get(comp), 1.0);
            }
        }
        // The physical thresholds are untouched — the boundary is the knob.
        assert_eq!(
            c.mag_deviation_ut,
            DefenseConfig::default().mag_deviation_ut
        );
    }

    #[test]
    fn scaled_boundaries_compose() {
        let b = StageBoundaries::uniform(1.0)
            .scaled(Component::Sld, 3.0)
            .scaled(Component::Sld, 0.5);
        assert!((b.get(Component::Sld) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn asv_top_c_defaults_to_conservative_pruning() {
        let c = DefenseConfig::default();
        assert_eq!(c.asv_top_c, 8);
        assert!(c.validate().is_ok());
        // Exact scoring stays expressible.
        let exact = DefenseConfig {
            asv_top_c: 0,
            ..DefenseConfig::default()
        };
        assert!(exact.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = DefenseConfig {
            distance_threshold_m: 0.0,
            ..DefenseConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPositiveDistanceThreshold { value: 0.0 })
        );
        let c2 = DefenseConfig {
            sound_field_bins: 1,
            ..DefenseConfig::default()
        };
        assert_eq!(
            c2.validate(),
            Err(ConfigError::TooFewSoundFieldBins { bins: 1 })
        );
        let c3 = DefenseConfig::default().with_stage_boundary(Component::Distance, 0.0);
        assert_eq!(
            c3.validate(),
            Err(ConfigError::BadStageBoundary {
                stage: Component::Distance,
                value: 0.0
            })
        );
        let c4 = DefenseConfig::default().with_stage_boundary(Component::Distance, f64::NAN);
        assert!(matches!(
            c4.validate(),
            Err(ConfigError::BadStageBoundary {
                stage: Component::Distance,
                ..
            })
        ));
        let c5 = DefenseConfig {
            mag_deviation_ut: -1.0,
            ..DefenseConfig::default()
        };
        assert!(matches!(
            c5.validate(),
            Err(ConfigError::NonPositiveMagThresholds { .. })
        ));
    }

    /// Every scalar threshold must be finite, and the five that scale,
    /// slacken or calibrate a check must be positive: NaN, zero and
    /// negative values are each refused with a typed error naming the
    /// field.
    #[test]
    fn validation_refuses_non_finite_and_non_positive_thresholds() {
        type Field = fn(&mut DefenseConfig) -> &mut f64;
        let fields: [(&str, Field, bool); 9] = [
            (
                "distance_threshold_m",
                |c| &mut c.distance_threshold_m,
                true,
            ),
            ("distance_tolerance", |c| &mut c.distance_tolerance, true),
            ("min_approach_m", |c| &mut c.min_approach_m, true),
            (
                "pilot_ranging_gain_m",
                |c| &mut c.pilot_ranging_gain_m,
                true,
            ),
            ("max_sweep_ripple_m", |c| &mut c.max_sweep_ripple_m, true),
            ("mag_deviation_ut", |c| &mut c.mag_deviation_ut, true),
            ("mag_rate_ut_per_s", |c| &mut c.mag_rate_ut_per_s, true),
            ("asv_threshold", |c| &mut c.asv_threshold, false),
            ("asv_scale", |c| &mut c.asv_scale, true),
        ];
        for (name, field, must_be_positive) in fields {
            let with = |value: f64| {
                let mut c = DefenseConfig::default();
                *field(&mut c) = value;
                c.validate()
            };
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(
                    matches!(with(value), Err(ConfigError::NonFiniteThreshold { field, .. }) if field == name),
                    "{name} = {value}: {:?}",
                    with(value)
                );
            }
            for value in [0.0, -1.5] {
                let got = with(value);
                if must_be_positive {
                    assert!(got.is_err(), "{name} = {value} accepted");
                    let msg = got.unwrap_err().to_string();
                    assert!(msg.contains("positive"), "{name} = {value}: {msg}");
                } else {
                    assert_eq!(got, Ok(()), "{name} = {value}");
                }
            }
        }
        assert_eq!(
            DefenseConfig {
                asv_scale: -1.5,
                ..DefenseConfig::default()
            }
            .validate(),
            Err(ConfigError::NonPositiveThreshold {
                field: "asv_scale",
                value: -1.5
            })
        );
    }

    #[test]
    fn config_errors_display_the_failed_invariant() {
        let err = DefenseConfig {
            distance_threshold_m: -0.5,
            ..DefenseConfig::default()
        }
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("distance threshold"), "{msg}");
        assert!(msg.contains("-0.5"), "{msg}");
        // It is a real std error.
        let _: &dyn std::error::Error = &err;
    }

    mod codec_round_trip {
        use super::*;
        use magshield_ml::codec::assert_hostile_input_fails;

        #[test]
        fn default_config_round_trips_exactly() {
            let cfg = DefenseConfig::default();
            assert_eq!(DefenseConfig::from_bytes(&cfg.to_bytes()).unwrap(), cfg);
        }

        #[test]
        fn tuned_config_round_trips_exactly() {
            let cfg = DefenseConfig {
                distance_threshold_m: 0.08,
                asv_top_c: 0,
                sound_field_bins: 24,
                ..DefenseConfig::default()
            }
            .with_stage_boundary(Component::Loudspeaker, 2.5)
            .with_stage_boundary(Component::Sld, 0.75);
            assert_eq!(DefenseConfig::from_bytes(&cfg.to_bytes()).unwrap(), cfg);
        }

        #[test]
        fn quantized_flag_round_trips() {
            let cfg = DefenseConfig {
                asv_quantized: true,
                ..DefenseConfig::default()
            };
            assert_eq!(DefenseConfig::from_bytes(&cfg.to_bytes()).unwrap(), cfg);
        }

        #[test]
        fn version_1_artifacts_still_decode() {
            // A v1 frame is the v2 frame with the version byte set to 1
            // and the trailing `asv_quantized` payload byte dropped.
            let cfg = DefenseConfig::default();
            let mut payload = ByteWriter::new();
            cfg.encode_payload(&mut payload);
            let mut payload = payload.into_bytes();
            assert_eq!(payload.pop(), Some(0));
            let mut w = ByteWriter::new();
            w.put_u32(DefenseConfig::MAGIC);
            w.put_u8(1);
            w.put_len(payload.len());
            let mut frame = w.into_bytes();
            frame.extend_from_slice(&payload);
            let checksum = codec::fnv1a_64(&frame).to_le_bytes();
            frame.extend_from_slice(&checksum);
            let back = DefenseConfig::from_bytes(&frame).unwrap();
            assert_eq!(back, cfg);
            assert!(!back.asv_quantized);
        }

        #[test]
        fn hostile_input_yields_typed_errors() {
            assert_hostile_input_fails::<DefenseConfig>(&DefenseConfig::default().to_bytes());
        }

        #[test]
        fn invalid_thresholds_are_rejected_on_decode() {
            let bad = DefenseConfig {
                sound_field_bins: 1,
                ..DefenseConfig::default()
            };
            assert!(matches!(
                DefenseConfig::from_bytes(&bad.to_bytes()),
                Err(CodecError::Invalid { .. })
            ));
            let nan = DefenseConfig {
                distance_tolerance: f64::NAN,
                ..DefenseConfig::default()
            };
            assert!(matches!(
                DefenseConfig::from_bytes(&nan.to_bytes()),
                Err(CodecError::Invalid { .. })
            ));
        }
    }
}
