//! Energy-based voice activity detection.
//!
//! The verification pipeline only scores speech frames; silence before and
//! after the passphrase is trimmed with a simple adaptive energy VAD.

/// Configuration for the energy VAD.
#[derive(Debug, Clone, Copy)]
pub struct VadConfig {
    /// Frame length in seconds.
    pub frame_s: f64,
    /// Ratio above the noise floor (in dB) to call a frame speech.
    pub threshold_db: f64,
    /// Hangover frames kept after the last active frame.
    pub hangover: usize,
}

impl Default for VadConfig {
    fn default() -> Self {
        Self {
            frame_s: 0.02,
            threshold_db: 9.0,
            hangover: 3,
        }
    }
}

/// Per-frame speech/non-speech decisions.
#[derive(Debug, Clone)]
pub struct VadResult {
    /// Frame length in samples used for the decisions.
    pub frame_len: usize,
    /// One flag per frame.
    pub active: Vec<bool>,
}

impl VadResult {
    /// Fraction of frames marked active.
    pub fn activity_ratio(&self) -> f64 {
        if self.active.is_empty() {
            return 0.0;
        }
        self.active.iter().filter(|&&a| a).count() as f64 / self.active.len() as f64
    }
}

/// Runs energy VAD over `signal`.
///
/// The noise floor is the 10th percentile of frame energies; frames more
/// than `threshold_db` above it are speech, with hangover smoothing.
pub fn detect(signal: &[f64], sample_rate: f64, config: VadConfig) -> VadResult {
    let frame_len = ((sample_rate * config.frame_s).round() as usize).max(1);
    let energies: Vec<f64> = signal
        .chunks(frame_len)
        .map(|c| c.iter().map(|x| x * x).sum::<f64>() / c.len() as f64)
        .collect();
    if energies.is_empty() {
        return VadResult {
            frame_len,
            active: Vec::new(),
        };
    }
    let mut sorted = energies.clone();
    sorted.sort_by(f64::total_cmp);
    let floor = sorted[sorted.len() / 10].max(1e-12);
    let thresh = floor * 10f64.powf(config.threshold_db / 10.0);

    let mut active: Vec<bool> = energies.iter().map(|&e| e > thresh).collect();
    // Hangover: extend activity after each active frame.
    let mut hang = 0usize;
    for a in active.iter_mut() {
        if *a {
            hang = config.hangover;
        } else if hang > 0 {
            *a = true;
            hang -= 1;
        }
    }
    VadResult { frame_len, active }
}

/// Returns the concatenated speech-only samples of `signal`.
pub fn trim_silence(signal: &[f64], sample_rate: f64, config: VadConfig) -> Vec<f64> {
    let mut out = Vec::new();
    trim_silence_into(
        signal,
        sample_rate,
        config,
        &mut VadScratch::default(),
        &mut out,
    );
    out
}

/// Reusable buffers for the allocation-free VAD path.
#[derive(Debug, Clone, Default)]
pub struct VadScratch {
    energies: Vec<f64>,
    ranked: Vec<f64>,
    active: Vec<bool>,
}

/// [`trim_silence`] into a caller-owned buffer through reusable scratch.
///
/// Decision-identical to [`detect`] + [`trim_silence`]: selecting the
/// noise-floor percentile under [`f64::total_cmp`] yields the same order
/// statistic as the reference's stable sort. Performs no allocations once
/// the scratch and output buffers have reached their high-water marks.
pub fn trim_silence_into(
    signal: &[f64],
    sample_rate: f64,
    config: VadConfig,
    scratch: &mut VadScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    let frame_len = ((sample_rate * config.frame_s).round() as usize).max(1);
    scratch.energies.clear();
    scratch.energies.extend(
        signal
            .chunks(frame_len)
            .map(|c| c.iter().map(|x| x * x).sum::<f64>() / c.len() as f64),
    );
    if scratch.energies.is_empty() {
        return;
    }
    scratch.ranked.clear();
    scratch.ranked.extend_from_slice(&scratch.energies);
    // The 10th-percentile element: selecting it under the total order
    // gives the bits a full sort would put there, in linear time.
    let tenth = scratch.ranked.len() / 10;
    let floor = scratch
        .ranked
        .select_nth_unstable_by(tenth, f64::total_cmp)
        .1
        .max(1e-12);
    let thresh = floor * 10f64.powf(config.threshold_db / 10.0);

    scratch.active.clear();
    scratch
        .active
        .extend(scratch.energies.iter().map(|&e| e > thresh));
    let mut hang = 0usize;
    for a in scratch.active.iter_mut() {
        if *a {
            hang = config.hangover;
        } else if hang > 0 {
            *a = true;
            hang -= 1;
        }
    }
    for (i, chunk) in signal.chunks(frame_len).enumerate() {
        if scratch.active[i] {
            out.extend_from_slice(chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speech_like(fs: f64) -> Vec<f64> {
        // 0.5 s silence, 1 s "speech" (loud tone), 0.5 s silence.
        let mut v = vec![0.0; (0.5 * fs) as usize];
        for i in 0..(fs as usize) {
            v.push((std::f64::consts::TAU * 220.0 * i as f64 / fs).sin());
        }
        v.extend(vec![0.0; (0.5 * fs) as usize]);
        // Add a tiny noise floor so percentile logic has structure.
        for (i, x) in v.iter_mut().enumerate() {
            *x += 1e-4 * ((i * 2654435761) % 1000) as f64 / 1000.0;
        }
        v
    }

    #[test]
    fn detects_speech_segment() {
        let fs = 8000.0;
        let sig = speech_like(fs);
        let vad = detect(&sig, fs, VadConfig::default());
        let ratio = vad.activity_ratio();
        assert!(
            (0.45..0.65).contains(&ratio),
            "expected ~50% active, got {ratio}"
        );
    }

    #[test]
    fn trim_keeps_loud_part() {
        let fs = 8000.0;
        let sig = speech_like(fs);
        let trimmed = trim_silence(&sig, fs, VadConfig::default());
        assert!(trimmed.len() < sig.len());
        assert!(trimmed.len() > (0.8 * fs) as usize);
        let rms = (trimmed.iter().map(|x| x * x).sum::<f64>() / trimmed.len() as f64).sqrt();
        assert!(rms > 0.5);
    }

    #[test]
    fn scratch_trim_matches_detect_path() {
        let fs = 8000.0;
        let sig = speech_like(fs);
        let vad = detect(&sig, fs, VadConfig::default());
        let mut expected = Vec::new();
        for (i, chunk) in sig.chunks(vad.frame_len).enumerate() {
            if vad.active[i] {
                expected.extend_from_slice(chunk);
            }
        }
        let mut scratch = VadScratch::default();
        let mut out = Vec::new();
        trim_silence_into(&sig, fs, VadConfig::default(), &mut scratch, &mut out);
        assert_eq!(out, expected);
        trim_silence_into(&sig, fs, VadConfig::default(), &mut scratch, &mut out);
        assert_eq!(out, expected, "reused scratch must agree");
    }

    #[test]
    fn silence_yields_no_activity() {
        let fs = 8000.0;
        let sig = vec![0.0; 8000];
        let vad = detect(&sig, fs, VadConfig::default());
        assert_eq!(vad.activity_ratio(), 0.0);
    }

    #[test]
    fn empty_signal() {
        let vad = detect(&[], 8000.0, VadConfig::default());
        assert_eq!(vad.active.len(), 0);
        assert_eq!(vad.activity_ratio(), 0.0);
    }

    #[test]
    fn hangover_bridges_short_gaps() {
        let fs = 1000.0;
        let cfg = VadConfig {
            frame_s: 0.01,
            threshold_db: 6.0,
            hangover: 2,
        };
        // Loud, 1-frame gap, loud.
        let mut sig = Vec::new();
        sig.extend(std::iter::repeat_n(1.0, 30));
        sig.extend(std::iter::repeat_n(0.0, 10));
        sig.extend(std::iter::repeat_n(1.0, 30));
        let vad = detect(&sig, fs, cfg);
        assert!(vad.active.iter().all(|&a| a), "{:?}", vad.active);
    }
}
