//! Analysis windows for framed spectral processing.

/// Supported analysis window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowKind {
    /// All-ones window.
    Rectangular,
    /// Hann (raised cosine); the default for spectral analysis.
    #[default]
    Hann,
    /// Hamming — the classic speech-analysis window, used for MFCC frames.
    Hamming,
    /// Blackman — higher sidelobe rejection for pilot-tone work.
    Blackman,
}

impl WindowKind {
    /// Evaluates the window at sample `i` of `n`.
    pub fn coefficient(self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = std::f64::consts::TAU * i as f64 / (n - 1) as f64;
        match self {
            WindowKind::Rectangular => 1.0,
            WindowKind::Hann => 0.5 * (1.0 - x.cos()),
            WindowKind::Hamming => 0.54 - 0.46 * x.cos(),
            WindowKind::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
        }
    }

    /// Generates the full window of length `n`.
    pub fn generate(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coefficient(i, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_endpoints_and_center() {
        let w = WindowKind::Hann.generate(101);
        assert!(w[0].abs() < 1e-12);
        assert!(w[100].abs() < 1e-12);
        assert!((w[50] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints() {
        let w = WindowKind::Hamming.generate(11);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[10] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn blackman_is_nonnegative() {
        for c in WindowKind::Blackman.generate(64) {
            assert!(c >= -1e-12);
        }
    }

    #[test]
    fn rectangular_is_ones() {
        assert!(WindowKind::Rectangular
            .generate(7)
            .iter()
            .all(|&c| c == 1.0));
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(WindowKind::Hann.generate(0).len(), 0);
        assert_eq!(WindowKind::Hann.generate(1), vec![1.0]);
    }

    #[test]
    fn windows_are_symmetric() {
        for kind in [WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman] {
            let w = kind.generate(33);
            for i in 0..w.len() {
                assert!(
                    (w[i] - w[w.len() - 1 - i]).abs() < 1e-12,
                    "{kind:?} not symmetric"
                );
            }
        }
    }
}
