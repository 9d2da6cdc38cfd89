//! Linear soft-margin SVM trained with Pegasos (primal subgradient).
//!
//! The sound-field verification component (§IV-B2) trains "a binary
//! classifier using the linear Support Vector Machine algorithm" on
//! quantified sound-field feature vectors. Pegasos minimizes the same
//! primal objective as classic SMO for linear kernels and needs no QP
//! machinery, but training here runs a fixed number of epochs
//! ([`SvmConfig::epochs`], 60 by default) and returns the last iterate,
//! which is not the converged optimum: the margins it gives differ from
//! an SMO solution's.

use crate::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};
use magshield_simkit::rng::SimRng;

/// A trained linear SVM: `f(x) = w·x + b`, predict `+1` iff `f(x) >= 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    /// Weight vector.
    weights: Vec<f64>,
    /// Bias term.
    bias: f64,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmConfig {
    /// Regularization strength λ (smaller = harder margin).
    pub lambda: f64,
    /// Number of Pegasos epochs over the data.
    pub epochs: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-3,
            epochs: 60,
        }
    }
}

impl LinearSvm {
    /// Trains on `(x, y)` pairs with `y ∈ {−1, +1}`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty, labels are not ±1, dimensions are
    /// inconsistent, or only one class is present.
    pub fn train(data: &[Vec<f64>], labels: &[f64], config: SvmConfig, rng: &SimRng) -> Self {
        assert!(!data.is_empty(), "SVM needs training data");
        assert_eq!(data.len(), labels.len(), "data/labels length mismatch");
        assert!(
            labels.iter().all(|&y| y == 1.0 || y == -1.0),
            "labels must be ±1"
        );
        assert!(
            labels.contains(&1.0) && labels.contains(&-1.0),
            "need both classes to train"
        );
        let dim = data[0].len();
        assert!(
            data.iter().all(|x| x.len() == dim),
            "inconsistent dimensions"
        );

        // Augmented formulation: fold the bias in as a constant feature so
        // the Pegasos step handles it with the same (stable) schedule. The
        // slight regularization of the bias this implies is standard and
        // harmless for the margins used here.
        let mut rng = rng.fork("pegasos");
        let mut w = vec![0.0; dim + 1];
        let mut t: u64 = 0;
        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        let aug_dot = |w: &[f64], x: &[f64]| dot(&w[..dim], x) + w[dim];
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (config.lambda * t as f64);
                let margin = labels[i] * aug_dot(&w, &data[i]);
                let shrink = (1.0 - eta * config.lambda).max(0.0);
                for wj in w.iter_mut() {
                    *wj *= shrink;
                }
                if margin < 1.0 {
                    for (wj, &xj) in w[..dim].iter_mut().zip(&data[i]) {
                        *wj += eta * labels[i] * xj;
                    }
                    w[dim] += eta * labels[i];
                }
                // Pegasos projection onto the ‖w‖ ≤ 1/√λ ball.
                let norm = dot(&w, &w).sqrt();
                let bound = 1.0 / config.lambda.sqrt();
                if norm > bound {
                    let f = bound / norm;
                    for wj in w.iter_mut() {
                        *wj *= f;
                    }
                }
            }
        }
        let bias = w[dim];
        w.truncate(dim);
        Self { weights: w, bias }
    }

    /// Signed decision value `w·x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn decision(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "dimension mismatch");
        dot(&self.weights, x) + self.bias
    }

    /// Hard prediction: `+1` or `−1`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Accuracy on a labeled set.
    pub fn accuracy(&self, data: &[Vec<f64>], labels: &[f64]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / data.len() as f64
    }

    /// The learned weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned bias.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

impl BinaryCodec for LinearSvm {
    const MAGIC: u32 = codec::magic(b"MSVM");
    const VERSION: u8 = 1;
    const NAME: &'static str = "LinearSvm";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_f64s(&self.weights);
        w.put_f64(self.bias);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let weights = r.get_f64s()?;
        let bias = r.get_f64()?;
        if !weights.iter().chain([&bias]).all(|v| v.is_finite()) {
            return Err(CodecError::Invalid {
                artifact: Self::NAME,
                reason: "parameters must be finite".to_string(),
            });
        }
        Ok(Self { weights, bias })
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(rng: &SimRng, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut r = rng.fork("svm-data");
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            if i % 2 == 0 {
                xs.push(vec![r.gauss(2.0, 0.5), r.gauss(2.0, 0.5)]);
                ys.push(1.0);
            } else {
                xs.push(vec![r.gauss(-2.0, 0.5), r.gauss(-2.0, 0.5)]);
                ys.push(-1.0);
            }
        }
        (xs, ys)
    }

    #[test]
    fn separates_clean_clusters() {
        let rng = SimRng::from_seed(31);
        let (xs, ys) = separable(&rng, 200);
        let svm = LinearSvm::train(&xs, &ys, SvmConfig::default(), &rng);
        assert_eq!(svm.accuracy(&xs, &ys), 1.0);
        // Decision values respect geometry.
        assert!(svm.decision(&[3.0, 3.0]) > 0.0);
        assert!(svm.decision(&[-3.0, -3.0]) < 0.0);
    }

    #[test]
    fn generalizes_to_held_out_points() {
        let rng = SimRng::from_seed(37);
        let (xs, ys) = separable(&rng, 300);
        let svm = LinearSvm::train(&xs[..200], &ys[..200], SvmConfig::default(), &rng);
        assert!(svm.accuracy(&xs[200..], &ys[200..]) > 0.97);
    }

    #[test]
    fn handles_noisy_overlap() {
        let rng = SimRng::from_seed(41);
        let mut r = rng.fork("noisy");
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..400 {
            if i % 2 == 0 {
                xs.push(vec![r.gauss(1.0, 1.0)]);
                ys.push(1.0);
            } else {
                xs.push(vec![r.gauss(-1.0, 1.0)]);
                ys.push(-1.0);
            }
        }
        let svm = LinearSvm::train(&xs, &ys, SvmConfig::default(), &rng);
        let acc = svm.accuracy(&xs, &ys);
        assert!(acc > 0.75, "noisy accuracy {acc}");
    }

    #[test]
    fn unbalanced_classes_learn_bias() {
        let rng = SimRng::from_seed(43);
        let mut r = rng.fork("unbal");
        let mut xs: Vec<Vec<f64>> = (0..180).map(|_| vec![r.gauss(1.5, 0.4)]).collect();
        let mut ys = vec![1.0; 180];
        xs.extend((0..20).map(|_| vec![r.gauss(-1.5, 0.4)]));
        ys.extend(vec![-1.0; 20]);
        let svm = LinearSvm::train(&xs, &ys, SvmConfig::default(), &rng);
        assert!(svm.accuracy(&xs, &ys) > 0.95);
    }

    #[test]
    fn deterministic_training() {
        let rng = SimRng::from_seed(47);
        let (xs, ys) = separable(&rng, 100);
        let a = LinearSvm::train(&xs, &ys, SvmConfig::default(), &SimRng::from_seed(3));
        let b = LinearSvm::train(&xs, &ys, SvmConfig::default(), &SimRng::from_seed(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "need both classes")]
    fn rejects_single_class() {
        LinearSvm::train(
            &[vec![1.0], vec![2.0]],
            &[1.0, 1.0],
            SvmConfig::default(),
            &SimRng::from_seed(1),
        );
    }

    #[test]
    #[should_panic(expected = "labels must be ±1")]
    fn rejects_bad_labels() {
        LinearSvm::train(
            &[vec![1.0], vec![2.0]],
            &[1.0, 0.0],
            SvmConfig::default(),
            &SimRng::from_seed(1),
        );
    }

    mod codec_round_trip {
        use super::*;
        use crate::codec::{assert_hostile_input_fails, BinaryCodec, CodecError};
        use magshield_simkit::prop::prelude::*;

        fn arb_svm() -> impl Strategy<Value = LinearSvm> {
            (1usize..8, 0u64..u64::MAX).prop_map(|(dim, seed)| {
                let mut rng = SimRng::from_seed(seed);
                LinearSvm {
                    weights: (0..dim).map(|_| rng.gauss(0.0, 3.0)).collect(),
                    bias: rng.gauss(0.0, 1.0),
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn svm_round_trips_exactly(svm in arb_svm()) {
                prop_assert_eq!(LinearSvm::from_bytes(&svm.to_bytes()).unwrap(), svm);
            }
        }

        #[test]
        fn trained_model_round_trips_with_identical_decisions() {
            let rng = SimRng::from_seed(31);
            let (xs, ys) = separable(&rng, 120);
            let svm = LinearSvm::train(&xs, &ys, SvmConfig::default(), &SimRng::from_seed(5));
            let back = LinearSvm::from_bytes(&svm.to_bytes()).unwrap();
            assert_eq!(back, svm);
            for x in &xs {
                assert_eq!(back.decision(x), svm.decision(x));
            }
        }

        #[test]
        fn hostile_input_yields_typed_errors() {
            let svm = LinearSvm {
                weights: vec![0.5, -1.5, 2.0],
                bias: 0.25,
            };
            assert_hostile_input_fails::<LinearSvm>(&svm.to_bytes());
        }

        #[test]
        fn non_finite_weights_are_invalid() {
            let svm = LinearSvm {
                weights: vec![f64::INFINITY],
                bias: 0.0,
            };
            assert!(matches!(
                LinearSvm::from_bytes(&svm.to_bytes()),
                Err(CodecError::Invalid { .. })
            ));
        }
    }
}
