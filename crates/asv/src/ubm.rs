//! Universal background model training.

use magshield_dsp::frame::FrameMatrix;
use magshield_ml::gmm::DiagonalGmm;
use magshield_simkit::rng::SimRng;

/// UBM training configuration.
#[derive(Debug, Clone, Copy)]
pub struct UbmConfig {
    /// Mixture components (Spear defaults are 256–512; the synthetic
    /// corpora here separate well with fewer).
    pub components: usize,
    /// EM iterations.
    pub em_iters: usize,
    /// Maximum frames pooled for training (subsampled beyond this).
    pub max_frames: usize,
}

impl Default for UbmConfig {
    fn default() -> Self {
        Self {
            components: 64,
            em_iters: 12,
            max_frames: 20_000,
        }
    }
}

/// Trains a UBM on the pooled feature frames of many utterances, each
/// already extracted by the front end the model will serve with.
///
/// # Panics
///
/// Panics if fewer frames than components are available.
pub fn train_ubm(utterances: &[FrameMatrix], config: UbmConfig, rng: &SimRng) -> DiagonalGmm {
    let mut pool = FrameMatrix::default();
    for frames in utterances {
        pool.extend_rows(frames);
    }
    assert!(
        pool.rows() >= config.components,
        "need at least {} frames, got {}",
        config.components,
        pool.rows()
    );
    // Training is a cold path; hand EM the row layout it expects.
    let rows: Vec<Vec<f64>> = if pool.rows() > config.max_frames {
        // Deterministic stride subsampling keeps coverage across speakers.
        let stride = pool.rows() as f64 / config.max_frames as f64;
        (0..config.max_frames)
            .map(|i| pool.row((i as f64 * stride) as usize).to_vec())
            .collect()
    } else {
        pool.to_rows()
    };
    DiagonalGmm::train(
        &rows,
        config.components,
        config.em_iters,
        1e-4,
        &rng.fork("ubm"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::FeatureExtractor;
    use magshield_voice::corpus::voxforge_like;
    use magshield_voice::synth::VOICE_SAMPLE_RATE;

    #[test]
    fn ubm_trains_on_synthetic_corpus() {
        let rng = SimRng::from_seed(1);
        let corpus = voxforge_like(3, &rng);
        let fx = FeatureExtractor::new(VOICE_SAMPLE_RATE);
        let utts: Vec<FrameMatrix> = corpus
            .utterances
            .iter()
            .map(|u| fx.extract(&u.audio))
            .collect();
        let ubm = train_ubm(
            &utts,
            UbmConfig {
                components: 8,
                em_iters: 4,
                max_frames: 3000,
            },
            &rng,
        );
        assert_eq!(ubm.num_components(), 8);
        assert_eq!(ubm.dim(), fx.dim());
        // The UBM should assign reasonable likelihood to corpus frames.
        let frames = fx.extract(&corpus.utterances[0].audio);
        let ll = magshield_ml::gmm::PreparedGmm::new(&ubm)
            .mean_log_likelihood(&frames, &mut magshield_ml::gmm::ScoreScratch::new());
        assert!(ll.is_finite());
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn rejects_insufficient_data() {
        let fx = FeatureExtractor::new(16_000.0);
        let silence = fx.extract(&[0.0; 800]);
        train_ubm(
            &[silence],
            UbmConfig {
                components: 512,
                em_iters: 1,
                max_frames: 1000,
            },
            &SimRng::from_seed(1),
        );
    }
}
