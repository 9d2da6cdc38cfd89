#![warn(missing_docs)]
// The dense-matrix kernels (PCA, GMM, circle fit) intentionally use
// index loops: the math mirrors the textbook row/column notation, and
// iterator rewrites obscure the symmetric-index structure.
#![allow(clippy::needless_range_loop)]

//! # magshield-ml
//!
//! Machine-learning kernels implemented from scratch for the magshield
//! defense system:
//!
//! * [`kmeans`] — k-means++ initialization and Lloyd iterations (GMM
//!   bootstrap);
//! * [`gmm`] — diagonal-covariance Gaussian mixture models with EM
//!   training and MAP (relevance) adaptation — the engine of the GMM–UBM
//!   speaker verifier (§IV-C);
//! * [`svm`] — a linear soft-margin SVM trained with the Pegasos
//!   subgradient method — the sound-field binary classifier (§IV-B2);
//! * [`pca`] — principal component analysis via Jacobi eigendecomposition
//!   (the Fig. 8 visualization and feature compaction);
//! * [`scaler`] — feature standardization;
//! * [`circlefit`] — Kåsa least-squares circle fitting, cited by the paper
//!   (\[17\]) for its distance calculation;
//! * [`metrics`] — FAR/FRR sweeps, equal error rate and DET curves, the
//!   metrics every table and figure of the evaluation reports;
//! * [`codec`] — the versioned, checksummed binary artifact format every
//!   trained model serializes through (train once, serve many);
//! * [`delta`] — sparse, bit-exact mean-delta encoding of MAP-adapted
//!   mixtures against their UBM prior (durable-store WAL records).

pub mod circlefit;
pub mod codec;
pub mod delta;
pub mod gmm;
pub mod kmeans;
pub mod metrics;
pub mod pca;
pub mod scaler;
pub mod svm;

pub use codec::{BinaryCodec, CodecError};
pub use gmm::DiagonalGmm;
pub use metrics::{equal_error_rate, ErrorRates};
pub use pca::Pca;
pub use svm::LinearSvm;
