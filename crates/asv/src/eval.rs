//! Trial protocols and verification reporting.

use magshield_ml::metrics::{eer_threshold, equal_error_rate, ErrorRates};

/// One scored verification trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Claimed speaker id.
    pub claimed: u32,
    /// True speaker id of the audio.
    pub actual: u32,
    /// Verification score.
    pub score: f64,
}

impl TrialOutcome {
    /// Whether this is a genuine (target) trial.
    pub fn is_genuine(&self) -> bool {
        self.claimed == self.actual
    }
}

/// Aggregated verification results over a trial set.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Genuine-trial scores.
    pub genuine_scores: Vec<f64>,
    /// Impostor-trial scores.
    pub impostor_scores: Vec<f64>,
}

impl VerificationReport {
    /// Builds a report from trial outcomes.
    pub fn from_trials(trials: &[TrialOutcome]) -> Self {
        let (genuine, impostor): (Vec<&TrialOutcome>, Vec<&TrialOutcome>) =
            trials.iter().partition(|t| t.is_genuine());
        Self {
            genuine_scores: genuine.iter().map(|t| t.score).collect(),
            impostor_scores: impostor.iter().map(|t| t.score).collect(),
        }
    }

    /// Equal error rate over the trial set.
    pub fn eer(&self) -> f64 {
        equal_error_rate(&self.genuine_scores, &self.impostor_scores)
    }

    /// The threshold at the EER operating point.
    pub fn eer_threshold(&self) -> f64 {
        eer_threshold(&self.genuine_scores, &self.impostor_scores)
    }

    /// FAR/FRR at an explicit threshold (accept iff score ≥ threshold).
    pub fn rates_at(&self, threshold: f64) -> ErrorRates {
        let frr = if self.genuine_scores.is_empty() {
            0.0
        } else {
            self.genuine_scores
                .iter()
                .filter(|&&s| s < threshold)
                .count() as f64
                / self.genuine_scores.len() as f64
        };
        let far = if self.impostor_scores.is_empty() {
            0.0
        } else {
            self.impostor_scores
                .iter()
                .filter(|&&s| s >= threshold)
                .count() as f64
                / self.impostor_scores.len() as f64
        };
        ErrorRates { far, frr }
    }

    /// Trial counts `(genuine, impostor)`.
    pub fn counts(&self) -> (usize, usize) {
        (self.genuine_scores.len(), self.impostor_scores.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trials() -> Vec<TrialOutcome> {
        vec![
            TrialOutcome {
                claimed: 0,
                actual: 0,
                score: 2.0,
            },
            TrialOutcome {
                claimed: 0,
                actual: 0,
                score: 3.0,
            },
            TrialOutcome {
                claimed: 0,
                actual: 1,
                score: -1.0,
            },
            TrialOutcome {
                claimed: 0,
                actual: 2,
                score: 0.5,
            },
        ]
    }

    #[test]
    fn partitions_genuine_and_impostor() {
        let r = VerificationReport::from_trials(&trials());
        assert_eq!(r.counts(), (2, 2));
        assert_eq!(r.genuine_scores, vec![2.0, 3.0]);
    }

    #[test]
    fn eer_zero_when_separated() {
        let r = VerificationReport::from_trials(&trials());
        assert_eq!(r.eer(), 0.0);
    }

    #[test]
    fn rates_at_threshold() {
        let r = VerificationReport::from_trials(&trials());
        let rates = r.rates_at(2.5);
        assert_eq!(rates.frr, 0.5);
        assert_eq!(rates.far, 0.0);
    }
}
