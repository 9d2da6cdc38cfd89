#![warn(missing_docs)]

//! # magshield-dsp
//!
//! Signal-processing kernels for the magshield workspace, implemented from
//! scratch (no external DSP dependencies):
//!
//! * [`complex`] — a minimal complex number type;
//! * [`fft`] — iterative radix-2 FFT/IFFT, a real-signal spectrum helper
//!   and the planned real-input FFT kernel behind MFCC extraction;
//! * [`frame`] — flat [`frame::FrameMatrix`] feature storage plus the
//!   reusable [`frame::ScratchPad`] behind the zero-allocation fast path;
//! * [`window`] — Hann / Hamming / Blackman / rectangular analysis windows;
//! * [`goertzel`] — single-bin DFT for pilot-tone amplitude/phase tracking;
//! * [`filter`] — RBJ biquad filters, one-pole smoothers, moving averages;
//! * [`phase`] — frame-wise phase extraction and unwrapping, the primitive
//!   behind the paper's phase-based distance measurement (§IV-B1);
//! * [`mel`] — mel filterbank, DCT-II and MFCC extraction feeding the ASV
//!   stack;
//! * [`vad`] — energy-based voice activity detection;
//! * [`level`] — framed RMS / dB metering for sound-field features.
//!
//! All functions operate on `&[f64]` sample slices plus an explicit sample
//! rate, so the crate is independent of the simulation substrate.
//!
//! # Example
//!
//! ```
//! use magshield_dsp::fft::fft;
//! use magshield_dsp::complex::Complex;
//! let mut buf: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! fft(&mut buf);
//! // DC bin is the sum of the inputs.
//! assert!((buf[0].re - 28.0).abs() < 1e-9);
//! ```

pub mod complex;
pub mod fft;
pub mod filter;
pub mod frame;
pub mod goertzel;
pub mod level;
pub mod mel;
pub mod phase;
pub mod vad;
pub mod window;

pub use complex::Complex;
pub use frame::{FrameMatrix, FrameSource, FrameSourceMut, ScratchPad};
pub use mel::MfccExtractor;
