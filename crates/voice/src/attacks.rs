//! Voice impersonation attack models — §III-A of the paper.
//!
//! Machine-based attacks (Types 1–3) produce audio that must ultimately be
//! played through a loudspeaker; human mimicry (§III-A2) is spoken live.
//! Each generator returns the *audio the attacker feeds to the output
//! stage*; playback-device coloration and the physical channel are applied
//! by the session-capture layer (core crate) so the same attack audio can
//! be evaluated through different devices.

use crate::devices::PlaybackDevice;
use crate::profile::SpeakerProfile;
use crate::synth::{FormantSynthesizer, SessionEffects};
use magshield_simkit::rng::SimRng;

/// The attack taxonomy of §III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Type 1: replay of a surreptitious recording of the victim.
    Replay,
    /// Type 2: voice morphing (conversion) of the attacker's speech toward
    /// the victim.
    Morphing,
    /// Type 3: text-to-speech synthesis in the victim's voice.
    Synthesis,
    /// Type 3 variant: synthesis trained only on SceneGuard-protected
    /// recordings (scene-consistent audible noise poisons the attacker's
    /// parameter estimation — see [`crate::sceneguard`]).
    ProtectedSynthesis,
    /// Human imitation without machine assistance.
    HumanMimicry,
}

impl AttackKind {
    /// All machine-based kinds (those requiring a loudspeaker).
    pub fn machine_based() -> [AttackKind; 4] {
        [
            AttackKind::Replay,
            AttackKind::Morphing,
            AttackKind::Synthesis,
            AttackKind::ProtectedSynthesis,
        ]
    }
}

/// Renders the audio an attacker of `kind` produces when impersonating
/// `victim` speaking `digits`.
///
/// `attacker` is the human operating the attack (his voice is the morph
/// source and the mimicry instrument).
pub fn attack_audio(
    kind: AttackKind,
    attacker: &SpeakerProfile,
    victim: &SpeakerProfile,
    digits: &str,
    rng: &SimRng,
) -> Vec<f64> {
    let synth = FormantSynthesizer::default();
    match kind {
        AttackKind::Replay => {
            // A genuine utterance of the victim, degraded by the covert
            // recording chain: band-limiting and recorder noise.
            let session = SessionEffects::sample(&rng.fork("covert-session"), 1.0);
            let mut audio = synth.render_digits(victim, digits, session, &rng.fork("covert"));
            degrade_recording(&mut audio, synth.sample_rate, &rng.fork("recorder"));
            audio
        }
        AttackKind::Morphing => {
            // High-quality conversion: victim's spectral parameters with
            // the attacker's residual source character + vocoder artifacts.
            let converted = attacker.morphed_toward(victim);
            let session = SessionEffects::sample(&rng.fork("morph-session"), 0.6);
            let mut audio = synth.render_digits(&converted, digits, session, &rng.fork("morph"));
            vocoder_artifacts(&mut audio, synth.sample_rate, &rng.fork("vocoder"));
            audio
        }
        AttackKind::Synthesis => {
            // TTS from text: victim parameters, robotic prosody (flattened
            // jitter/shimmer — synthetic speech is *too* regular).
            let mut tts = victim.clone();
            tts.jitter *= 0.15;
            tts.shimmer *= 0.15;
            tts.rate = 1.0;
            let mut audio =
                synth.render_digits(&tts, digits, SessionEffects::neutral(), &rng.fork("tts"));
            vocoder_artifacts(&mut audio, synth.sample_rate, &rng.fork("tts-vocoder"));
            audio
        }
        AttackKind::ProtectedSynthesis => {
            // TTS trained on SceneGuard-protected recordings: the voice
            // parameters are estimated through scene noise (degraded),
            // and the trained model reproduces a faint imprint of the
            // protective noise it learned from.
            let estimated = crate::sceneguard::clone_profile_through_protection(
                victim,
                crate::sceneguard::Scene::Cafe,
                crate::sceneguard::PROTECTIVE_SNR_DB,
                &rng.fork("protected-estimate"),
            );
            let mut tts = estimated;
            tts.jitter *= 0.15;
            tts.shimmer *= 0.15;
            tts.rate = 1.0;
            let mut audio = synth.render_digits(
                &tts,
                digits,
                SessionEffects::neutral(),
                &rng.fork("protected-tts"),
            );
            vocoder_artifacts(
                &mut audio,
                synth.sample_rate,
                &rng.fork("protected-vocoder"),
            );
            // Trained-in background imprint, well below the speech but
            // above the vocoder floor (~18 dB down).
            let speech_rms =
                (audio.iter().map(|x| x * x).sum::<f64>() / audio.len().max(1) as f64).sqrt();
            let imprint = crate::sceneguard::scene_noise(
                crate::sceneguard::Scene::Cafe,
                audio.len(),
                synth.sample_rate,
                &rng.fork("protected-imprint"),
            );
            let gain = speech_rms / 10f64.powf(18.0 / 20.0);
            for (x, n) in audio.iter_mut().zip(&imprint) {
                *x += n * gain;
            }
            audio
        }
        AttackKind::HumanMimicry => {
            let mimic = attacker.mimicking(victim, rng);
            let session = SessionEffects::sample(&rng.fork("mimic-session"), 1.0);
            synth.render_digits(&mimic, digits, session, &rng.fork("mimic"))
        }
    }
}

/// Applies a playback device's passband to attack audio — the coloration
/// the loudspeaker itself adds before the sound reaches the air.
pub fn apply_device_response(audio: &mut [f64], sample_rate: f64, device: &PlaybackDevice) {
    let nyq = sample_rate * 0.499;
    if device.low_hz > 20.0 {
        let mut hp = magshield_dsp::filter::Biquad::highpass(
            sample_rate,
            device.low_hz.min(nyq),
            std::f64::consts::FRAC_1_SQRT_2,
        );
        for x in audio.iter_mut() {
            *x = hp.process(*x);
        }
    }
    if device.high_hz < nyq {
        let mut lp = magshield_dsp::filter::Biquad::lowpass(
            sample_rate,
            device.high_hz,
            std::f64::consts::FRAC_1_SQRT_2,
        );
        for x in audio.iter_mut() {
            *x = lp.process(*x);
        }
    }
}

/// Covert-recording degradation: telephone-ish band-limit plus noise.
fn degrade_recording(audio: &mut [f64], sample_rate: f64, rng: &SimRng) {
    let mut r = rng.fork("degrade");
    let mut lp = magshield_dsp::filter::Biquad::lowpass(sample_rate, 6000.0, 0.7);
    let mut hp = magshield_dsp::filter::Biquad::highpass(sample_rate, 120.0, 0.7);
    for x in audio.iter_mut() {
        *x = hp.process(lp.process(*x)) + r.gauss(0.0, 0.003);
    }
}

/// Vocoder artifacts: frame-rate amplitude quantization and a weak
/// metallic resonance, the fingerprints voice-conversion detectors look
/// for (\[56\] in the paper).
fn vocoder_artifacts(audio: &mut [f64], sample_rate: f64, rng: &SimRng) {
    let mut r = rng.fork("artifact");
    let frame = (sample_rate * 0.010) as usize; // 10 ms synthesis frames
    for chunk in audio.chunks_mut(frame.max(1)) {
        // Per-frame gain steps (piecewise-constant envelope).
        let g = 1.0 + r.gauss(0.0, 0.04);
        for x in chunk.iter_mut() {
            *x *= g;
        }
    }
    let mut res = magshield_dsp::filter::Biquad::peaking(sample_rate, 3400.0, 8.0, 3.0);
    for x in audio.iter_mut() {
        *x = res.process(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::VOICE_SAMPLE_RATE;
    use magshield_dsp::mel::MfccExtractor;

    fn speakers() -> (SpeakerProfile, SpeakerProfile) {
        let rng = SimRng::from_seed(55);
        (
            SpeakerProfile::sample(0, &rng),
            SpeakerProfile::sample(1, &rng),
        )
    }

    fn mean_mfcc(audio: &[f64]) -> Vec<f64> {
        let ex = MfccExtractor::new(VOICE_SAMPLE_RATE);
        let frames = ex.extract(audio);
        let mut m = [0.0; 13];
        for f in frames.iter_rows() {
            for (mi, v) in m.iter_mut().zip(f) {
                *mi += v;
            }
        }
        m.iter().map(|v| v / frames.rows() as f64).collect()
    }

    fn cep_dist(a: &[f64], b: &[f64]) -> f64 {
        a[1..]
            .iter()
            .zip(&b[1..])
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn taxonomy() {
        assert_eq!(AttackKind::machine_based().len(), 4);
    }

    #[test]
    fn sceneguard_protection_degrades_the_clone() {
        // A synthesis attack trained on protected recordings must land
        // farther from the victim's spectral envelope than one trained on
        // clean recordings — that is the whole point of the protection.
        let rng = SimRng::from_seed(91);
        let synth = FormantSynthesizer::default();
        let n = 6;
        let mut d_clean_sum = 0.0;
        let mut d_protected_sum = 0.0;
        for k in 0..n {
            let attacker = SpeakerProfile::sample(2 * k, &rng);
            let victim = SpeakerProfile::sample(2 * k + 1, &rng);
            let genuine = mean_mfcc(&synth.render_digits(
                &victim,
                "123456",
                SessionEffects::neutral(),
                &rng.fork_indexed("g", u64::from(k)),
            ));
            let prng = rng.fork_indexed("pair", u64::from(k));
            let clean = attack_audio(AttackKind::Synthesis, &attacker, &victim, "123456", &prng);
            let protected = attack_audio(
                AttackKind::ProtectedSynthesis,
                &attacker,
                &victim,
                "123456",
                &prng,
            );
            d_clean_sum += cep_dist(&mean_mfcc(&clean), &genuine);
            d_protected_sum += cep_dist(&mean_mfcc(&protected), &genuine);
        }
        assert!(
            d_protected_sum > d_clean_sum,
            "protected-synthesis (avg {}) should impersonate worse than clean TTS (avg {})",
            d_protected_sum / n as f64,
            d_clean_sum / n as f64
        );
    }

    #[test]
    fn machine_attacks_sound_like_the_victim() {
        let (attacker, victim) = speakers();
        let rng = SimRng::from_seed(77);
        let synth = FormantSynthesizer::default();
        let genuine = synth.render_digits(
            &victim,
            "123456",
            SessionEffects::neutral(),
            &rng.fork("genuine"),
        );
        let genuine_m = mean_mfcc(&genuine);
        let attacker_own = synth.render_digits(
            &attacker,
            "123456",
            SessionEffects::neutral(),
            &rng.fork("own"),
        );
        let attacker_d = cep_dist(&mean_mfcc(&attacker_own), &genuine_m);
        // ProtectedSynthesis is excluded by design: SceneGuard protection
        // exists precisely to break this property (see
        // `sceneguard_protection_degrades_the_clone`).
        for kind in [
            AttackKind::Replay,
            AttackKind::Morphing,
            AttackKind::Synthesis,
        ] {
            let audio = attack_audio(kind, &attacker, &victim, "123456", &rng.fork("atk"));
            let d = cep_dist(&mean_mfcc(&audio), &genuine_m);
            assert!(
                d < attacker_d,
                "{kind:?}: distance to victim {d} should beat attacker's own voice {attacker_d}"
            );
        }
    }

    #[test]
    fn mimicry_helps_but_less_than_machines_on_average() {
        // Averaged over pairs: morphing (full spectral conversion) should
        // land closer to the victim's envelope than live human mimicry
        // (partial match with inflated variance). Individual pairs can go
        // either way in mean-MFCC space, so compare the averages.
        let rng = SimRng::from_seed(78);
        let synth = FormantSynthesizer::default();
        let n = 6;
        let mut d_mimic_sum = 0.0;
        let mut d_morph_sum = 0.0;
        for k in 0..n {
            let attacker = SpeakerProfile::sample(2 * k, &rng);
            let victim = SpeakerProfile::sample(2 * k + 1, &rng);
            let genuine = mean_mfcc(&synth.render_digits(
                &victim,
                "123456",
                SessionEffects::neutral(),
                &rng.fork_indexed("g", u64::from(k)),
            ));
            let prng = rng.fork_indexed("pair", u64::from(k));
            let mimic = attack_audio(
                AttackKind::HumanMimicry,
                &attacker,
                &victim,
                "123456",
                &prng,
            );
            let morph = attack_audio(AttackKind::Morphing, &attacker, &victim, "123456", &prng);
            d_mimic_sum += cep_dist(&mean_mfcc(&mimic), &genuine);
            d_morph_sum += cep_dist(&mean_mfcc(&morph), &genuine);
        }
        assert!(
            d_morph_sum < d_mimic_sum,
            "morphing (avg {}) should out-impersonate mimicry (avg {})",
            d_morph_sum / n as f64,
            d_mimic_sum / n as f64
        );
    }

    #[test]
    fn device_response_bandlimits() {
        use magshield_dsp::goertzel::tone_amplitude;
        let fs = 16_000.0;
        let mut audio: Vec<f64> = (0..16_000)
            .map(|i| {
                let t = i as f64 / fs;
                (std::f64::consts::TAU * 200.0 * t).sin()
                    + (std::f64::consts::TAU * 6000.0 * t).sin()
            })
            .collect();
        let phone_speaker = crate::devices::table_iv_catalog()
            .into_iter()
            .find(|d| d.name.contains("iPhone 4S"))
            .unwrap();
        apply_device_response(&mut audio, fs, &phone_speaker);
        // 200 Hz is below the 400 Hz cutoff of the tiny driver → attenuated.
        let low = tone_amplitude(&audio[8000..], 200.0, fs);
        let mid = tone_amplitude(&audio[8000..], 6000.0, fs);
        assert!(low < 0.6, "low tone should be attenuated: {low}");
        assert!(mid > 0.7, "mid tone should pass: {mid}");
    }

    #[test]
    fn attacks_are_reproducible() {
        let (attacker, victim) = speakers();
        let a = attack_audio(
            AttackKind::Synthesis,
            &attacker,
            &victim,
            "42",
            &SimRng::from_seed(5),
        );
        let b = attack_audio(
            AttackKind::Synthesis,
            &attacker,
            &victim,
            "42",
            &SimRng::from_seed(5),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn synthesis_is_unnaturally_regular() {
        // TTS output flattens jitter; verify via the profile used.
        let (_, victim) = speakers();
        let mut tts = victim.clone();
        tts.jitter *= 0.15;
        assert!(tts.jitter < victim.jitter);
    }
}
