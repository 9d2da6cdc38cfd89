//! ASV acoustic front end: VAD → MFCC (+Δ) → cepstral mean normalization.

use magshield_dsp::frame::{FrameMatrix, ScratchPad};
use magshield_dsp::mel::{
    append_deltas, append_deltas_into, cepstral_mean_normalize, cepstral_mean_normalize_flat,
    MfccExtractor,
};
use magshield_dsp::vad::{trim_silence, trim_silence_into, VadConfig, VadScratch};
use magshield_ml::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};

/// Reusable buffers for [`FeatureExtractor::extract_into`]: DSP scratch,
/// VAD scratch, the trimmed-speech buffer and the pre-delta coefficient
/// matrix. One per scoring thread; every buffer grows to its high-water
/// mark once and is then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FrontendScratch {
    dsp: ScratchPad,
    vad: VadScratch,
    speech: Vec<f64>,
    base: FrameMatrix,
}

impl FrontendScratch {
    /// A fresh scratch with no reserved memory.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Feature extraction configuration and machinery: 13 MFCCs with
/// per-utterance cepstral mean normalization, then their deltas.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    mfcc: MfccExtractor,
    vad: VadConfig,
}

impl FeatureExtractor {
    /// Standard speech front end at `sample_rate`: 13 MFCCs + deltas, CMN.
    pub fn new(sample_rate: f64) -> Self {
        Self {
            mfcc: MfccExtractor::new(sample_rate),
            vad: VadConfig::default(),
        }
    }

    /// Feature dimensionality produced: the cepstra and their deltas.
    pub fn dim(&self) -> usize {
        2 * self.mfcc.num_coeffs
    }

    /// Audio sample rate this front end was built for (Hz).
    pub fn sample_rate(&self) -> f64 {
        self.mfcc.sample_rate
    }

    /// Extracts features from one utterance.
    ///
    /// Convenience wrapper over [`Self::extract_into`] with throwaway
    /// scratch; hot paths should hold a [`FrontendScratch`] and call
    /// `extract_into` directly.
    pub fn extract(&self, audio: &[f64]) -> FrameMatrix {
        let mut scratch = FrontendScratch::new();
        let mut out = FrameMatrix::default();
        self.extract_into(audio, &mut scratch, &mut out);
        out
    }

    /// Zero-allocation feature extraction into a caller-owned matrix.
    pub fn extract_into(&self, audio: &[f64], s: &mut FrontendScratch, out: &mut FrameMatrix) {
        trim_silence_into(
            audio,
            self.mfcc.sample_rate,
            self.vad,
            &mut s.vad,
            &mut s.speech,
        );
        let source: &[f64] = if s.speech.len() >= self.mfcc.frame_len {
            &s.speech
        } else {
            audio // fall back if VAD ate everything (e.g. quiet replays)
        };
        self.mfcc.extract_into(source, &mut s.dsp, &mut s.base);
        cepstral_mean_normalize_flat(&mut s.base);
        append_deltas_into(&s.base, out);
    }

    /// The oracle front end: the same VAD, CMN and delta steps as
    /// [`Self::extract_into`] over per-call allocations, with MFCCs from
    /// [`MfccExtractor::extract_reference`] (the free `fft`). Matches
    /// [`Self::extract`] up to the real-input FFT's rounding (bounded per
    /// frame by [`MfccExtractor::reference_error_bounds`]); kept as the
    /// parity oracle and the kernel bench's baseline.
    pub fn extract_reference(&self, audio: &[f64]) -> FrameMatrix {
        let speech = trim_silence(audio, self.mfcc.sample_rate, self.vad);
        let source = if speech.len() >= self.mfcc.frame_len {
            &speech
        } else {
            audio
        };
        let mut frames = self.mfcc.extract_reference(source);
        cepstral_mean_normalize(&mut frames);
        let mut out = FrameMatrix::new(self.dim());
        for row in &append_deltas(&frames) {
            out.push_row(row);
        }
        out
    }
}

/// The front end is configuration, not learned state: serializing the
/// sample rate is enough to rebuild it exactly via
/// [`FeatureExtractor::new`] (MFCC geometry and VAD defaults are derived).
///
/// The payload keeps the three switch bytes earlier layouts carried —
/// deltas, CMN and (from version 2) the fused MFCC path — and writes them
/// as `true, true, false`. A record with deltas or CMN off asks for a
/// feature dimension or normalization this front end no longer produces,
/// so it is refused. A set fused byte is read and ignored: the fused
/// MFCCs agreed with this front end's to within 1e-7. Version-1 records
/// lack the fused byte.
impl BinaryCodec for FeatureExtractor {
    const MAGIC: u32 = codec::magic(b"MFEX");
    const VERSION: u8 = 2;
    const MIN_VERSION: u8 = 1;
    const NAME: &'static str = "FeatureExtractor";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_f64(self.sample_rate());
        w.put_bool(true); // deltas
        w.put_bool(true); // CMN
        w.put_bool(false); // fused MFCC path
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Self::decode_versioned_payload(Self::VERSION, r)
    }

    fn decode_versioned_payload(version: u8, r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let sample_rate = r.get_f64()?;
        let use_deltas = r.get_bool()?;
        let use_cmn = r.get_bool()?;
        if version >= 2 {
            r.get_bool()?; // fused MFCC path: ignored
        }
        let invalid = |reason: String| CodecError::Invalid {
            artifact: Self::NAME,
            reason,
        };
        if !(sample_rate.is_finite() && sample_rate >= 1000.0) {
            return Err(invalid(format!("implausible sample rate {sample_rate}")));
        }
        if !(use_deltas && use_cmn) {
            return Err(invalid(format!(
                "unsupported front end (deltas {use_deltas}, CMN {use_cmn}): \
                 only MFCCs with CMN and deltas are produced"
            )));
        }
        Ok(Self::new(sample_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speechy(fs: f64) -> Vec<f64> {
        let mut v = vec![0.0; (0.3 * fs) as usize];
        for i in 0..(fs as usize) {
            let t = i as f64 / fs;
            v.push(
                (std::f64::consts::TAU * 150.0 * t).sin()
                    + 0.4 * (std::f64::consts::TAU * 450.0 * t).sin(),
            );
        }
        v.extend(vec![0.0; (0.3 * fs) as usize]);
        v
    }

    #[test]
    fn produces_delta_augmented_frames() {
        let fx = FeatureExtractor::new(16_000.0);
        let frames = fx.extract(&speechy(16_000.0));
        assert!(!frames.is_empty());
        assert_eq!(frames.cols(), fx.dim());
        assert_eq!(fx.dim(), 26);
    }

    #[test]
    fn vad_trims_silence() {
        let fx = FeatureExtractor::new(16_000.0);
        let frames_padded = fx.extract(&speechy(16_000.0));
        // 1 s of speech → ~98 frames; with the 0.6 s of silence trimmed the
        // count should be near that, not ~158.
        assert!(
            frames_padded.rows() < 125,
            "VAD should trim: {} frames",
            frames_padded.rows()
        );
    }

    #[test]
    fn cmn_zeroes_static_means() {
        let fx = FeatureExtractor::new(16_000.0);
        let frames = fx.extract(&speechy(16_000.0));
        // The first 13 columns are the normalized cepstra; deltas follow.
        for d in 0..13 {
            let mean: f64 = frames.iter_rows().map(|f| f[d]).sum::<f64>() / frames.rows() as f64;
            assert!(mean.abs() < 1e-9, "dim {d} mean {mean}");
        }
    }

    #[test]
    fn silence_only_falls_back_gracefully() {
        let fx = FeatureExtractor::new(16_000.0);
        let frames = fx.extract(&vec![0.0; 16_000]);
        // Falls back to the raw audio; still produces finite frames.
        assert!(!frames.is_empty());
        assert!(frames.as_slice().iter().all(|v| v.is_finite()));
    }

    /// The production front end against the oracle front end, within the
    /// MFCC bounds carried through CMN and deltas: with `B` the largest
    /// per-frame MFCC bound, `T` the frame count and `M` the largest
    /// reference MFCC magnitude, a normalized coefficient moves by at most
    /// `2B` (itself and the column mean) and a delta by at most that
    /// again over two, plus each path's rounding of the mean, the
    /// subtraction and the difference, `8·γ_{T+4}·(M + B)`.
    #[test]
    fn extract_is_within_its_bound_of_the_oracle_front_end() {
        const U: f64 = f64::EPSILON / 2.0;
        let fx = FeatureExtractor::new(16_000.0);
        // Speech the VAD trims, and silence it drops entirely (the
        // whole-signal fallback).
        for sig in [speechy(16_000.0), vec![0.0; 16_000]] {
            let fast = fx.extract(&sig);
            let reference = fx.extract_reference(&sig);
            assert!(!fast.is_empty());
            assert_eq!(
                (fast.rows(), fast.cols()),
                (reference.rows(), reference.cols())
            );
            let speech = trim_silence(&sig, fx.mfcc.sample_rate, fx.vad);
            let source = if speech.len() >= fx.mfcc.frame_len {
                &speech
            } else {
                &sig
            };
            let b = fx
                .mfcc
                .reference_error_bounds(source)
                .into_iter()
                .fold(0.0, f64::max);
            let m = fx
                .mfcc
                .extract_reference(source)
                .iter()
                .flatten()
                .fold(0.0f64, |a, v| a.max(v.abs()));
            let t = fast.rows() as f64 + 4.0;
            let bound = 2.0 * b + 8.0 * (t * U / (1.0 - t * U)) * (m + b);
            assert!(bound.is_finite());
            for (got, want) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert!(
                    (got - want).abs() <= bound,
                    "{got} vs {want}, bound {bound:e}"
                );
            }
        }
    }

    /// An MFEX frame at `version` around a hand-built payload: sample
    /// rate, then the given switch bytes.
    fn mfex_frame(version: u8, sample_rate: f64, switches: &[u8]) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        payload.put_f64(sample_rate);
        for &b in switches {
            payload.put_u8(b);
        }
        let payload = payload.into_bytes();
        let mut w = ByteWriter::new();
        w.put_u32(FeatureExtractor::MAGIC);
        w.put_u8(version);
        w.put_len(payload.len());
        let mut frame = w.into_bytes();
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&codec::fnv1a_64(&frame).to_le_bytes());
        frame
    }

    #[test]
    fn encoding_writes_the_default_switch_bytes() {
        let fx = FeatureExtractor::new(16_000.0);
        assert_eq!(fx.to_bytes(), mfex_frame(2, 16_000.0, &[1, 1, 0]));
    }

    #[test]
    fn records_without_deltas_or_cmn_are_refused() {
        for switches in [[0, 1, 0], [1, 0, 0], [0, 0, 1]] {
            let frame = mfex_frame(2, 16_000.0, &switches);
            assert!(
                matches!(
                    FeatureExtractor::from_bytes(&frame),
                    Err(CodecError::Invalid { .. })
                ),
                "switches {switches:?} must be refused"
            );
        }
        let v1 = mfex_frame(1, 16_000.0, &[1, 0]);
        assert!(matches!(
            FeatureExtractor::from_bytes(&v1),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn fused_and_v1_records_decode_to_the_default_extractor() {
        let sig = speechy(16_000.0);
        let expected = FeatureExtractor::new(16_000.0).extract(&sig);
        let bits = |m: &FrameMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for frame in [
            mfex_frame(2, 16_000.0, &[1, 1, 1]),
            mfex_frame(1, 16_000.0, &[1, 1]),
        ] {
            let fx = FeatureExtractor::from_bytes(&frame).unwrap();
            assert_eq!(fx.sample_rate(), 16_000.0);
            assert_eq!(fx.dim(), 26);
            assert_eq!(bits(&fx.extract(&sig)), bits(&expected));
            // Re-encoding writes the current default bytes.
            assert_eq!(fx.to_bytes(), mfex_frame(2, 16_000.0, &[1, 1, 0]));
        }
    }

    #[test]
    fn scratch_reuse_is_identical() {
        let fx = FeatureExtractor::new(16_000.0);
        let sig = speechy(16_000.0);
        let mut s = FrontendScratch::new();
        let mut out = FrameMatrix::default();
        fx.extract_into(&sig, &mut s, &mut out);
        let first = out.clone();
        fx.extract_into(&sig, &mut s, &mut out);
        assert_eq!(out, first);
        assert_eq!(out, fx.extract(&sig), "one-shot path must agree");
    }
}
