//! Source–filter formant synthesis of digit passphrases.
//!
//! A classic cascade formant synthesizer: a glottal pulse train (with
//! jitter/shimmer and spectral tilt) plus aspiration noise excites a
//! cascade of two-pole formant resonators whose targets follow the vowel
//! sequence of the spoken digits. The output is not natural-sounding
//! speech — it is a *speaker-discriminative* signal with the same
//! spectral-envelope structure real ASV front ends consume, which is the
//! property Table I's experiments need.

use crate::profile::SpeakerProfile;
use magshield_simkit::rng::SimRng;

/// Audio sample rate used throughout the voice stack (Hz).
pub const VOICE_SAMPLE_RATE: f64 = 16_000.0;

/// Per-session (per-recording) variability: channel coloration and pitch
/// offset. Two utterances of the same speaker in the same session share
/// these; different sessions differ — the structure the ISV back end
/// compensates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionEffects {
    /// Multiplicative f0 offset for the session (voice state, effort).
    pub f0_scale: f64,
    /// Channel spectral tilt (dB/octave, microphone + room coloration).
    pub channel_tilt_db_per_oct: f64,
    /// Channel resonance center (Hz) and gain (dB) — one coloration peak.
    pub channel_peak_hz: f64,
    /// Gain of the coloration peak (dB).
    pub channel_peak_db: f64,
    /// Additive recording noise floor (linear RMS).
    pub noise_floor: f64,
}

impl SessionEffects {
    /// Draws session effects; `strength` scales how much sessions differ
    /// (1.0 = normal telephone-style variability).
    pub fn sample(rng: &SimRng, strength: f64) -> Self {
        let mut r = rng.fork("session");
        Self {
            f0_scale: 1.0 + strength * r.uniform(-0.06, 0.06),
            channel_tilt_db_per_oct: strength * r.uniform(-2.0, 2.0),
            channel_peak_hz: r.uniform(500.0, 3500.0),
            channel_peak_db: strength * r.uniform(-4.0, 4.0),
            noise_floor: 0.002 + strength * r.uniform(0.0, 0.004),
        }
    }

    /// A neutral (identity) session.
    pub fn neutral() -> Self {
        Self {
            f0_scale: 1.0,
            channel_tilt_db_per_oct: 0.0,
            channel_peak_hz: 1000.0,
            channel_peak_db: 0.0,
            noise_floor: 0.001,
        }
    }
}

/// Vowel formant targets (Hz), neutral adult reference.
/// F1, F2, F3, F4.
const VOWELS: [[f64; 4]; 6] = [
    [270.0, 2290.0, 3010.0, 3600.0], // i
    [390.0, 1990.0, 2550.0, 3500.0], // e
    [730.0, 1090.0, 2440.0, 3400.0], // a
    [570.0, 840.0, 2410.0, 3300.0],  // o
    [300.0, 870.0, 2240.0, 3200.0],  // u
    [490.0, 1350.0, 1690.0, 3300.0], // ɜ (r-colored)
];

/// Formant bandwidths (Hz).
const BANDWIDTHS: [f64; 4] = [60.0, 90.0, 120.0, 160.0];

/// Digit → (leading consonant noise?, vowel sequence) mapping. Every digit
/// gets a distinct two-vowel trajectory so passphrases have phonetic
/// structure.
fn digit_vowels(d: u8) -> (bool, [usize; 2]) {
    match d % 10 {
        0 => (false, [4, 3]), // "zero"-ish u→o
        1 => (true, [5, 0]),  // w-ʌ-n
        2 => (true, [4, 4]),  // t-uu
        3 => (true, [1, 0]),  // th-r-ee
        4 => (true, [3, 5]),  // f-o-r
        5 => (true, [2, 0]),  // f-ai-v
        6 => (true, [0, 0]),  // s-i-ks
        7 => (true, [1, 2]),  // s-e-ven
        8 => (false, [1, 0]), // ei-t
        9 => (true, [2, 0]),  // n-ai-n
        _ => unreachable!(),
    }
}

/// Formant peak gains in dB (F1 strongest).
const FORMANT_PEAK_DB: [f64; 4] = [22.0, 17.0, 12.0, 9.0];

/// Log-magnitude vocal-tract + source envelope (dB) at frequency `f` for a
/// speaker-scaled vowel target set.
fn envelope_db(f: f64, formants: &[f64; 4], bandwidths: &[f64; 4], tilt_db_per_oct: f64) -> f64 {
    // Source tilt relative to 200 Hz.
    let tilt = tilt_db_per_oct * (f.max(50.0) / 200.0).log2();
    // Lorentzian formant peaks.
    let peaks: f64 = formants
        .iter()
        .zip(bandwidths)
        .zip(&FORMANT_PEAK_DB)
        .map(|((&fc, &bw), &g)| {
            let half = bw / 2.0;
            g * half * half / ((f - fc).powi(2) + half * half)
        })
        .sum();
    tilt + peaks
}

/// The formant synthesizer.
#[derive(Debug, Clone)]
pub struct FormantSynthesizer {
    /// Output sample rate (Hz).
    pub sample_rate: f64,
}

impl Default for FormantSynthesizer {
    fn default() -> Self {
        Self {
            sample_rate: VOICE_SAMPLE_RATE,
        }
    }
}

impl FormantSynthesizer {
    /// Creates a synthesizer at `sample_rate`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is below 8 kHz (formant targets need headroom).
    pub fn new(sample_rate: f64) -> Self {
        assert!(
            sample_rate >= 8000.0,
            "sample rate too low for formant synthesis"
        );
        Self { sample_rate }
    }

    /// Renders `speaker` saying the digit string `digits` under `session`
    /// effects. Returns mono samples in [−1, 1].
    ///
    /// # Panics
    ///
    /// Panics if `digits` contains a non-digit character.
    pub fn render_digits(
        &self,
        speaker: &SpeakerProfile,
        digits: &str,
        session: SessionEffects,
        rng: &SimRng,
    ) -> Vec<f64> {
        let fs = self.sample_rate;
        let mut r = rng.fork("synth");
        let mut out: Vec<f64> = Vec::new();

        let tilt_total = -10.0 + speaker.tilt_db_per_oct;
        let f0_session = speaker.f0_hz * session.f0_scale;
        // Slow per-take pitch wander (jitter) and loudness wander (shimmer)
        // realized as random walks updated per segment.
        let mut f0_wander = 1.0;
        let mut amp_wander = 1.0;
        let mut digit_index = 0.0;
        let total_digits = digits.chars().count().max(1) as f64;

        for ch in digits.chars() {
            let d = ch
                .to_digit(10)
                .unwrap_or_else(|| panic!("passphrase must be digits, got {ch:?}"))
                as u8;
            let (consonant, vowels) = digit_vowels(d);
            let seg_s = 0.11 / speaker.rate;
            let gap_s = 0.03;

            if consonant {
                // Unvoiced burst: noise shaped around a speaker-scaled
                // frication center (~4 kHz / vtl).
                let n = (0.04 * fs) as usize;
                let center = (4000.0 * speaker.vtl_factor).min(fs * 0.4);
                let mut bp = magshield_dsp::filter::Biquad::bandpass(fs, center, 1.2);
                for i in 0..n {
                    let env = (i as f64 / n as f64 * std::f64::consts::PI).sin();
                    out.push(0.25 * env * bp.process(r.gauss(0.0, 1.0)));
                }
            }

            for &v in vowels.iter() {
                let n = (seg_s * fs) as usize;
                // Speaker-scaled formant targets for this vowel.
                let mut formants = [0.0; 4];
                let mut bands = [0.0; 4];
                for fi in 0..4 {
                    formants[fi] = speaker.formant_hz(fi, VOWELS[v][fi]).min(fs * 0.45);
                    bands[fi] = BANDWIDTHS[fi] * speaker.vtl_factor;
                }
                // Per-segment prosody: declination + jitter/shimmer walks.
                f0_wander *= 1.0 + r.gauss(0.0, speaker.jitter * 3.0);
                f0_wander = f0_wander.clamp(0.9, 1.1);
                amp_wander *= 1.0 + r.gauss(0.0, speaker.shimmer * 2.0);
                amp_wander = amp_wander.clamp(0.85, 1.2);
                let declination = 1.0 - 0.06 * digit_index / total_digits;
                let f0 = f0_session * declination * f0_wander;

                // Additive harmonic synthesis: amplitudes sampled from the
                // speaker's spectral envelope at the harmonic frequencies.
                let nharm = ((fs * 0.45 / f0) as usize).max(1);
                let mut amps = Vec::with_capacity(nharm);
                let mut phases = Vec::with_capacity(nharm);
                for h in 1..=nharm {
                    let fh = h as f64 * f0;
                    let db = envelope_db(fh, &formants, &bands, tilt_total);
                    amps.push(10f64.powf(db / 20.0));
                    phases.push(r.uniform(0.0, std::f64::consts::TAU));
                }
                let norm: f64 = amps.iter().map(|a| a * a).sum::<f64>().sqrt().max(1e-9);
                let vibrato_hz = 5.0;
                let vibrato_depth = 0.01 + speaker.jitter;
                for i in 0..n {
                    let t = i as f64 / fs;
                    let frac = i as f64 / n as f64;
                    let vib = 1.0 + vibrato_depth * (std::f64::consts::TAU * vibrato_hz * t).sin();
                    let mut x = 0.0;
                    for (h, (a, ph)) in amps.iter().zip(&phases).enumerate() {
                        let fh = (h as f64 + 1.0) * f0 * vib;
                        if fh > fs * 0.48 {
                            break;
                        }
                        x += a * (std::f64::consts::TAU * fh * t + ph).sin();
                    }
                    // Aspiration noise, a few % of the voiced energy.
                    x = x / norm + 0.02 * r.gauss(0.0, 1.0);
                    let env = (frac * std::f64::consts::PI).sin().powf(0.4);
                    out.push(x * env * amp_wander);
                }
            }
            // Inter-digit gap.
            out.extend(std::iter::repeat_n(0.0, (gap_s * fs) as usize));
            digit_index += 1.0;
        }

        self.apply_channel(&mut out, session, &mut r);
        normalize(&mut out, 0.6);
        out
    }

    /// Applies session channel coloration and noise in place.
    fn apply_channel(&self, samples: &mut [f64], session: SessionEffects, r: &mut SimRng) {
        let fs = self.sample_rate;
        // Tilt filter.
        let k = tilt_coefficient(session.channel_tilt_db_per_oct, fs);
        if session.channel_tilt_db_per_oct.abs() > 1e-9 {
            if session.channel_tilt_db_per_oct < 0.0 {
                let mut s = 0.0;
                for x in samples.iter_mut() {
                    s += k * (*x - s);
                    *x = s;
                }
            } else {
                // Positive tilt: first-difference blended.
                let alpha = (session.channel_tilt_db_per_oct / 12.0).min(1.0);
                let mut prev = 0.0;
                for x in samples.iter_mut() {
                    let hp = *x - prev;
                    prev = *x;
                    *x = (1.0 - alpha) * *x + alpha * hp;
                }
            }
        }
        // One coloration peak.
        if session.channel_peak_db.abs() > 1e-9 {
            let mut f = magshield_dsp::filter::Biquad::peaking(
                fs,
                session.channel_peak_hz.min(fs * 0.45),
                1.2,
                session.channel_peak_db,
            );
            for x in samples.iter_mut() {
                *x = f.process(*x);
            }
        }
        // Noise floor.
        for x in samples.iter_mut() {
            *x += r.gauss(0.0, session.noise_floor);
        }
    }
}

fn tilt_coefficient(db_per_oct: f64, fs: f64) -> f64 {
    // Map tilt to a one-pole cutoff: stronger negative tilt → lower cutoff.
    let cutoff = (4000.0 * 2f64.powf(db_per_oct / 6.0)).clamp(200.0, fs * 0.45);
    1.0 - (-std::f64::consts::TAU * cutoff / fs).exp()
}

fn normalize(samples: &mut [f64], peak: f64) {
    let max = samples.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
    if max > 1e-12 {
        let g = peak / max;
        for x in samples.iter_mut() {
            *x *= g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magshield_dsp::mel::MfccExtractor;

    fn speaker(id: u32) -> SpeakerProfile {
        SpeakerProfile::sample(id, &SimRng::from_seed(100))
    }

    fn render(id: u32, digits: &str, seed: u64) -> Vec<f64> {
        FormantSynthesizer::default().render_digits(
            &speaker(id),
            digits,
            SessionEffects::neutral(),
            &SimRng::from_seed(seed),
        )
    }

    #[test]
    fn output_is_bounded_and_nonsilent() {
        let audio = render(0, "123456", 1);
        assert!(audio.len() > 16_000, "six digits should exceed 1 s");
        assert!(audio.iter().all(|x| x.abs() <= 1.0));
        let rms = (audio.iter().map(|x| x * x).sum::<f64>() / audio.len() as f64).sqrt();
        assert!(rms > 0.02, "rms {rms}");
    }

    #[test]
    fn same_speaker_same_digits_similar_mfcc() {
        let ex = MfccExtractor::new(VOICE_SAMPLE_RATE);
        let mean_mfcc = |audio: &[f64]| -> Vec<f64> {
            let frames = ex.extract(audio);
            let mut m = [0.0; 13];
            for f in frames.iter_rows() {
                for (mi, v) in m.iter_mut().zip(f) {
                    *mi += v;
                }
            }
            m.iter().map(|v| v / frames.rows() as f64).collect()
        };
        let a = mean_mfcc(&render(0, "123456", 1));
        let b = mean_mfcc(&render(0, "123456", 2)); // different take
        let c = mean_mfcc(&render(7, "123456", 3)); // different speaker
        let dist = |x: &[f64], y: &[f64]| -> f64 {
            // Skip C0 (energy) for the comparison.
            x[1..]
                .iter()
                .zip(&y[1..])
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let within = dist(&a, &b);
        let between = dist(&a, &c);
        assert!(
            between > within * 1.5,
            "between-speaker {between} should exceed within-speaker {within}"
        );
    }

    #[test]
    fn pitch_is_speaker_dependent() {
        // Measure f0 directly: the autocorrelation peak over the lags of a
        // 60–400 Hz pitch range, on a voiced stretch of each rendering.
        let rng = SimRng::from_seed(100);
        let mut low = SpeakerProfile::sample(0, &rng);
        low.f0_hz = 95.0;
        let mut high = low.clone();
        high.f0_hz = 230.0;
        let synth = FormantSynthesizer::default();
        let f0 = |p: &SpeakerProfile| -> f64 {
            let audio =
                synth.render_digits(p, "22", SessionEffects::neutral(), &SimRng::from_seed(4));
            let x = &audio[2000..6096];
            let ac = |lag: usize| -> f64 { x.iter().zip(&x[lag..]).map(|(a, b)| a * b).sum() };
            let lags = (VOICE_SAMPLE_RATE / 400.0).round() as usize
                ..=(VOICE_SAMPLE_RATE / 60.0).round() as usize;
            let best = lags.max_by(|&a, &b| ac(a).total_cmp(&ac(b))).unwrap();
            VOICE_SAMPLE_RATE / best as f64
        };
        let (f_low, f_high) = (f0(&low), f0(&high));
        for (measured, configured) in [(f_low, low.f0_hz), (f_high, high.f0_hz)] {
            assert!(
                (measured / configured - 1.0).abs() < 0.08,
                "measured f0 {measured:.1} Hz, configured {configured} Hz"
            );
        }
        let ratio = f_high / f_low;
        assert!(
            (ratio / (230.0 / 95.0) - 1.0).abs() < 0.08,
            "f0 ratio {ratio:.3} should track 230/95"
        );
    }

    #[test]
    fn session_effects_change_the_signal() {
        let sp = speaker(0);
        let synth = FormantSynthesizer::default();
        let a = synth.render_digits(&sp, "99", SessionEffects::neutral(), &SimRng::from_seed(5));
        let strong = SessionEffects {
            channel_tilt_db_per_oct: -4.0,
            channel_peak_db: 6.0,
            ..SessionEffects::neutral()
        };
        let b = synth.render_digits(&sp, "99", strong, &SimRng::from_seed(5));
        let diff: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(diff > 0.1, "channel must alter the waveform: {diff}");
    }

    #[test]
    fn rendering_is_reproducible() {
        assert_eq!(render(3, "0718", 9), render(3, "0718", 9));
    }

    #[test]
    #[should_panic(expected = "must be digits")]
    fn rejects_non_digit_passphrase() {
        render(0, "12a4", 1);
    }

    #[test]
    fn all_digits_render() {
        let audio = render(1, "0123456789", 2);
        assert!(audio.len() > 2 * 16_000);
    }
}
