//! The shared full-rate speech-band analysis of one session.
//!
//! Three cascade stages read the 48 kHz microphone audio below the
//! ranging pilot: sound field and SLD read the 6 kHz low-passed level
//! track at the IMU frame rate (SLD for both microphones), and speaker
//! identity reads the 7 kHz low-passed audio resampled to the 16 kHz ASV
//! rate. [`SessionAnalysis`] computes all of them in **one** pass over the
//! samples — the *speech pass* — the first time any of them is read, and
//! only the parts it was planned for ([`SpeechParts`]).
//!
//! The speech pass is bit-identical to the separate passes it replaces:
//! each part runs the same [`Biquad::process`] recurrence, each frame's
//! level sums the same squares in the same order as
//! [`level_track`](magshield_dsp::level::level_track) over the filtered
//! buffer (without materializing it), and the ASV audio is resampled by
//! [`TimeSeries::lerp_resample`], whose per-thread plan reproduces
//! [`TimeSeries::lerp_sample`] at every output bit for bit.

use crate::session::SessionData;
use magshield_dsp::filter::{Biquad, BiquadPair};
use magshield_dsp::level::amplitude_to_dbfs;
use magshield_simkit::series::TimeSeries;
use std::cell::{OnceCell, RefCell};
use std::f64::consts::FRAC_1_SQRT_2;

/// Upper edge (Hz) of the speech band the level tracks measure: below the
/// always-on ranging pilot, so the pilot does not masquerade as speech
/// level after the utterance ends.
const LEVEL_CUTOFF_HZ: f64 = 6000.0;

/// Cutoff (Hz) of the two-biquad low-pass that removes the pilot before
/// resampling to the ASV rate (it would otherwise alias into the speech
/// band at 16 kHz).
const ASV_CUTOFF_HZ: f64 = 7000.0;

/// A set of speech-pass outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeechParts(u8);

impl SpeechParts {
    /// Nothing: the stage reads no full-rate audio through the analysis.
    pub const NONE: Self = Self(0);
    /// The primary microphone's speech-band level track.
    pub const LEVELS: Self = Self(1);
    /// The secondary microphone's speech-band level track.
    pub const SECONDARY_LEVELS: Self = Self(2);
    /// The pilot-free audio at the ASV rate.
    pub const ASV_AUDIO: Self = Self(4);

    /// Both microphones' level tracks (what the SLD check reads).
    pub const BOTH_LEVELS: Self = Self(1 | 2);

    /// The union of two sets.
    #[must_use]
    pub const fn with(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Whether every part of `other` is in this set.
    pub fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }
}

/// One session's speech-band analysis, built lazily.
///
/// Created with the parts the stages still to run will read. The first
/// read of any part (or an explicit [`SessionAnalysis::speech_pass`])
/// runs the speech pass for every planned part at once; a part read
/// without having been planned gets a pass of its own.
#[derive(Debug)]
pub struct SessionAnalysis<'s> {
    session: &'s SessionData,
    planned: SpeechParts,
    levels: OnceCell<Vec<f64>>,
    secondary_levels: OnceCell<Option<Vec<f64>>>,
    asv_audio: OnceCell<Vec<f64>>,
}

impl<'s> SessionAnalysis<'s> {
    /// An analysis of `session` whose speech pass computes `planned`.
    /// Nothing is computed until a part is read.
    pub fn new(session: &'s SessionData, planned: SpeechParts) -> Self {
        Self {
            session,
            planned,
            levels: OnceCell::new(),
            secondary_levels: OnceCell::new(),
            asv_audio: OnceCell::new(),
        }
    }

    /// The analyzed session.
    pub fn session(&self) -> &'s SessionData {
        self.session
    }

    /// The parts already computed.
    pub fn computed(&self) -> SpeechParts {
        let mut done = SpeechParts::NONE;
        if self.levels.get().is_some() {
            done = done.with(SpeechParts::LEVELS);
        }
        if self.secondary_levels.get().is_some() {
            done = done.with(SpeechParts::SECONDARY_LEVELS);
        }
        if self.asv_audio.get().is_some() {
            done = done.with(SpeechParts::ASV_AUDIO);
        }
        done
    }

    /// Runs the speech pass unless every part of `wanted` is computed.
    /// The pass computes `wanted` plus every planned part still missing.
    pub fn speech_pass(&self, wanted: SpeechParts) {
        let done = self.computed();
        if done.contains(wanted) {
            return;
        }
        let todo = SpeechParts(self.planned.with(wanted).0 & !done.0);
        let session = self.session;
        let secondary = session
            .audio2
            .as_deref()
            .filter(|_| todo.contains(SpeechParts::SECONDARY_LEVELS));
        // A second mic that is not sample-aligned with the first (only an
        // invalid session) gets a level pass of its own.
        let (fused, alone) = match secondary {
            Some(a2) if a2.len() == session.audio.len() => (Some(a2), None),
            other => (None, other),
        };
        let primary = todo.contains(SpeechParts::LEVELS) || fused.is_some();
        let asv = todo.contains(SpeechParts::ASV_AUDIO);
        let mut tracks = LevelTracks::default();
        if primary || asv {
            LOWPASS_SCRATCH.with(|cell| {
                let filtered = &mut cell.borrow_mut();
                let (audio, audio2) = (&session.audio, fused.unwrap_or_default());
                tracks = match (primary, fused.is_some(), asv) {
                    (true, true, true) => {
                        pass::<true, true, true>(session, audio, audio2, filtered)
                    }
                    (true, true, false) => {
                        pass::<true, true, false>(session, audio, audio2, filtered)
                    }
                    (true, false, true) => pass::<true, false, true>(session, audio, &[], filtered),
                    (true, false, false) => {
                        pass::<true, false, false>(session, audio, &[], filtered)
                    }
                    (false, _, _) => pass::<false, false, true>(session, audio, &[], filtered),
                };
                if asv {
                    let _ = self.asv_audio.set(TimeSeries::lerp_resample(
                        filtered,
                        session.audio_rate,
                        magshield_voice::synth::VOICE_SAMPLE_RATE,
                    ));
                }
            });
        }
        if let Some(a2) = alone {
            tracks.secondary =
                pass::<true, false, false>(session, a2, &[], &mut Vec::new()).primary;
        }
        if primary {
            let _ = self.levels.set(tracks.primary);
        }
        if todo.contains(SpeechParts::SECONDARY_LEVELS) {
            let _ = self
                .secondary_levels
                .set(session.audio2.as_ref().map(|_| tracks.secondary));
        }
    }

    /// The primary microphone's speech-band level track (dBFS, one level
    /// per IMU frame).
    pub fn levels(&self) -> &[f64] {
        self.speech_pass(SpeechParts::LEVELS);
        self.levels.get().expect("computed by the speech pass")
    }

    /// The secondary microphone's level track; `None` on a single-mic
    /// session.
    pub fn secondary_levels(&self) -> Option<&[f64]> {
        self.speech_pass(SpeechParts::SECONDARY_LEVELS);
        self.secondary_levels
            .get()
            .expect("computed by the speech pass")
            .as_deref()
    }

    /// The pilot-free primary-microphone audio at the ASV rate.
    pub fn asv_audio(&self) -> &[f64] {
        self.speech_pass(SpeechParts::ASV_AUDIO);
        self.asv_audio.get().expect("computed by the speech pass")
    }

    /// [`SessionAnalysis::asv_audio`], moved out of the analysis.
    pub fn into_asv_audio(self) -> Vec<f64> {
        self.speech_pass(SpeechParts::ASV_AUDIO);
        self.asv_audio
            .into_inner()
            .expect("computed by the speech pass")
    }
}

/// The level tracks one speech pass produced.
#[derive(Default)]
struct LevelTracks {
    primary: Vec<f64>,
    secondary: Vec<f64>,
}

/// The speech pass over `audio` (and `audio2`, sample-aligned with it,
/// when `L2`): the 6 kHz level tracks (`L1`, `L2`) and, when `ASV`, the
/// two-biquad 7 kHz low-pass written to `filtered`.
///
/// The loop walks IMU frames. Within a frame, the level filters and the
/// first ASV biquad run on the frame's samples while the second ASV
/// biquad runs on the previous frame's first-stage output: independent
/// recurrences interleave, where feeding the second biquad from the first
/// in the same step would serialize them. The recurrences step in the
/// two lanes of a [`BiquadPair`]: a dual-mic pass pairs the two level
/// filters, and the first ASV biquad with the lagged second; a
/// single-mic pass pairs the level filter with the first ASV biquad on
/// the shared input, and runs the lagged second alone (paired with the
/// first, it measured slower). Each lane runs exactly
/// [`Biquad::process`]'s operations and each recurrence still sees its
/// samples in order, so every output is bit-identical to its own serial
/// pass, and each frame's level sums the same squares in the same order
/// as [`level_track`](magshield_dsp::level::level_track).
fn pass<const L1: bool, const L2: bool, const ASV: bool>(
    session: &SessionData,
    audio: &[f64],
    audio2: &[f64],
    filtered: &mut Vec<f64>,
) -> LevelTracks {
    let rate = session.audio_rate;
    let frame_s = 1.0 / session.imu_rate;
    let frame_len = ((rate * frame_s).round() as usize).max(1);
    let lowpass = |cutoff: f64| Biquad::lowpass(rate, cutoff.min(rate * 0.45), FRAC_1_SQRT_2);
    let (level, asv) = (lowpass(LEVEL_CUTOFF_HZ), lowpass(ASV_CUTOFF_HZ));
    // The filters fed this frame's samples: (level, level2) on a dual-mic
    // pass, (level, first ASV biquad) on a single-mic one.
    let mut front = BiquadPair::new(level.clone(), if L2 { level } else { asv.clone() });
    // The ASV chain: lane 0 is the first biquad on a dual-mic pass, lane
    // 1 the lagged second biquad on every pass.
    let mut chain = BiquadPair::new(asv.clone(), asv);
    let frames = audio.len().div_ceil(frame_len);
    let mut out = LevelTracks {
        primary: Vec::with_capacity(if L1 { frames } else { 0 }),
        secondary: Vec::with_capacity(if L2 { frames } else { 0 }),
    };
    if ASV {
        // Every sample is written before it is read: no need to clear a
        // buffer left by an earlier session.
        filtered.resize(audio.len(), 0.0);
    }
    let rms_db = |energy: f64, n: usize| amplitude_to_dbfs((energy / n as f64).sqrt());
    let (mut start, mut pending) = (0, 0..0);
    while start < audio.len() {
        let len = frame_len.min(audio.len() - start);
        let x = &audio[start..start + len];
        let x2 = if L2 { &audio2[start..start + len] } else { x };
        let (lagged, y): (&mut [f64], &mut [f64]) = if ASV {
            let (earlier, rest) = filtered.split_at_mut(start);
            (&mut earlier[pending.clone()], &mut rest[..len])
        } else {
            (&mut [], &mut [])
        };
        let (mut energy, mut energy2) = (0.0f64, 0.0f64);
        // One sample `j` of this frame, and `lag`, the lagged second-stage
        // sample stepped beside it (none once the previous frame's are
        // spent).
        let mut step = |j: usize, lag: Option<&mut f64>| {
            if L2 {
                let [v, v2] = front.process([x[j], x2[j]]);
                energy += v * v;
                energy2 += v2 * v2;
            } else if L1 && ASV {
                let [v, first] = front.process([x[j], x[j]]);
                energy += v * v;
                y[j] = first;
            } else if L1 {
                let v = front.process_lane(0, x[j]);
                energy += v * v;
            } else if ASV {
                y[j] = front.process_lane(1, x[j]);
            }
            match lag {
                Some(l) if L2 && ASV => [y[j], *l] = chain.process([x[j], *l]),
                Some(l) => *l = chain.process_lane(1, *l),
                None if L2 && ASV => y[j] = chain.process_lane(0, x[j]),
                None => {}
            }
        };
        let common = len.min(lagged.len());
        let (paired, rest) = lagged.split_at_mut(common);
        for (j, l) in paired.iter_mut().enumerate() {
            step(j, Some(l));
        }
        (common..len).for_each(|j| step(j, None));
        for v in rest {
            *v = chain.process_lane(1, *v);
        }
        if L1 {
            out.primary.push(rms_db(energy, len));
        }
        if L2 {
            out.secondary.push(rms_db(energy2, len));
        }
        pending = start..start + len;
        start += len;
    }
    if ASV {
        filtered[pending]
            .iter_mut()
            .for_each(|v| *v = chain.process_lane(1, *v));
    }
    out
}

std::thread_local! {
    /// Per-thread buffer for the ASV filter's full-rate output (~1 MB per
    /// 3 s session, purely intermediate), reused across sessions.
    static LOWPASS_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robustness::AttackFamily;
    use crate::scenario::ScenarioBuilder;
    use magshield_dsp::frame::{FrameMatrix, ScratchPad};
    use magshield_dsp::level::level_track;
    use magshield_dsp::mel::MfccExtractor;
    use magshield_dsp::vad::{trim_silence, VadConfig};
    use magshield_sensors::phone::PhoneModel;
    use magshield_simkit::rng::SimRng;
    use magshield_voice::synth::VOICE_SAMPLE_RATE;

    /// The separate passes the speech pass replaces: filter into a buffer,
    /// then `level_track` over it.
    fn levels_oracle(session: &SessionData, audio: &[f64]) -> Vec<f64> {
        let rate = session.audio_rate;
        let mut lp = Biquad::lowpass(rate, 6000.0_f64.min(rate * 0.45), FRAC_1_SQRT_2);
        let filtered: Vec<f64> = audio.iter().map(|&x| lp.process(x)).collect();
        level_track(&filtered, rate, 1.0 / session.imu_rate).1
    }

    /// Two 7 kHz low-passes into a buffer, then `lerp_sample` at 16 kHz.
    fn asv_audio_oracle(session: &SessionData) -> Vec<f64> {
        let rate = session.audio_rate;
        let voice_rate = magshield_voice::synth::VOICE_SAMPLE_RATE;
        let mut lp = Biquad::lowpass(rate, 7000.0_f64.min(rate * 0.45), FRAC_1_SQRT_2);
        let mut lp2 = lp.clone();
        let filtered: Vec<f64> = session
            .audio
            .iter()
            .map(|&x| lp2.process(lp.process(x)))
            .collect();
        let n = (filtered.len() as f64 / rate * voice_rate).round() as usize;
        (0..n)
            .map(|i| TimeSeries::lerp_sample(&filtered, rate, i as f64 / voice_rate))
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_matches_oracles(session: &SessionData, what: &str) {
        let levels = levels_oracle(session, &session.audio);
        let levels2 = session
            .audio2
            .as_ref()
            .map(|a| bits(&levels_oracle(session, a)));
        let asv = asv_audio_oracle(session);
        let all = SpeechParts::BOTH_LEVELS.with(SpeechParts::ASV_AUDIO);
        // One fused pass over every part, and each part on its own.
        let fused = SessionAnalysis::new(session, all);
        fused.speech_pass(all);
        assert_eq!(fused.computed(), all, "{what}");
        for analysis in [&fused, &SessionAnalysis::new(session, SpeechParts::NONE)] {
            assert_eq!(bits(analysis.levels()), bits(&levels), "{what}: levels");
            assert_eq!(
                analysis.secondary_levels().map(bits),
                levels2,
                "{what}: secondary levels"
            );
            assert_eq!(bits(analysis.asv_audio()), bits(&asv), "{what}: ASV audio");
        }
        let standalone = SessionAnalysis::new(session, SpeechParts::ASV_AUDIO).into_asv_audio();
        assert_eq!(
            bits(&standalone),
            bits(&asv),
            "{what}: standalone ASV audio"
        );
    }

    /// Calls `f` on a genuine capture and one capture of every
    /// [`AttackFamily`], from a single-mic and a dual-mic phone.
    fn for_each_capture(mut f: impl FnMut(&SessionData, &str)) {
        let (_, user) = crate::test_support::shared_tiny_system();
        assert_eq!(user.phone, PhoneModel::Nexus5, "the single-mic fixture");
        let mut dual = user.clone();
        dual.phone = PhoneModel::Nexus4;
        let rng = SimRng::from_seed(17);
        for (name, u) in [("single-mic", user), ("dual-mic", &dual)] {
            let genuine = ScenarioBuilder::genuine(u).capture(&rng.fork(name));
            assert_eq!(genuine.audio2.is_some(), name == "dual-mic");
            f(&genuine, &format!("genuine {name}"));
            for (trial, family) in AttackFamily::all().into_iter().enumerate() {
                let s = family
                    .scenario(u, trial, &rng)
                    .capture(&rng.fork_indexed(name, trial as u64));
                f(&s, &format!("{family:?} {name}"));
            }
        }
    }

    #[test]
    fn speech_pass_is_bit_identical_to_the_separate_passes() {
        for_each_capture(assert_matches_oracles);
    }

    /// The production MFCC path (the real-input plan fed by its packed,
    /// bit-reversed windowed load) against the free-`fft` oracle, within
    /// the per-frame `reference_error_bounds`, on the ASV audio of real
    /// captures — selected the way the ASV front end selects it: the
    /// VAD-trimmed speech, or the whole signal when the VAD keeps less
    /// than one frame.
    #[test]
    fn mfcc_fast_path_is_within_its_bound_of_reference_on_captures() {
        let mfcc = MfccExtractor::new(VOICE_SAMPLE_RATE);
        let mut pad = ScratchPad::new();
        let mut out = FrameMatrix::default();
        let mut check = |audio: &[f64], what: &str| {
            mfcc.extract_into(audio, &mut pad, &mut out);
            let reference = mfcc.extract_reference(audio);
            let bounds = mfcc.reference_error_bounds(audio);
            assert_eq!(out.rows(), reference.len(), "{what}: frame count");
            for (t, (r, &bound)) in reference.iter().zip(&bounds).enumerate() {
                assert!(bound.is_finite(), "{what}: frame {t} has no bound");
                for (k, (&got, &want)) in out.row(t).iter().zip(r).enumerate() {
                    assert!(
                        (got - want).abs() <= bound,
                        "{what}: frame {t} coefficient {k}: {got} vs {want}, bound {bound:e}"
                    );
                }
            }
            out.rows()
        };
        let speech_of =
            |audio: &[f64]| trim_silence(audio, VOICE_SAMPLE_RATE, VadConfig::default());
        let mut quiet = None;
        for_each_capture(|session, what| {
            let audio = SessionAnalysis::new(session, SpeechParts::ASV_AUDIO).into_asv_audio();
            let speech = speech_of(&audio);
            assert!(speech.len() >= mfcc.frame_len, "{what}: VAD kept no speech");
            assert!(check(&speech, what) > 0, "{what}: no frames");
            if quiet.is_none() && what.starts_with("Replay") {
                quiet = Some(session.clone());
            }
        });

        // A replay played back so quietly that the VAD drops every frame:
        // the front end falls back to the whole signal.
        let mut quiet = quiet.expect("a replay capture");
        for x in quiet.audio.iter_mut() {
            *x *= 1e-7;
        }
        let audio = SessionAnalysis::new(&quiet, SpeechParts::ASV_AUDIO).into_asv_audio();
        assert!(speech_of(&audio).len() < mfcc.frame_len, "VAD kept speech");
        assert!(check(&audio, "quiet replay") > 0, "quiet replay: no frames");

        // A signal shorter than one frame yields no frames on either path.
        assert_eq!(check(&audio[..mfcc.frame_len - 1], "short signal"), 0);
    }

    #[test]
    fn pass_computes_only_planned_and_wanted_parts() {
        let (_, user) = crate::test_support::shared_tiny_system();
        let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(3));
        let analysis = SessionAnalysis::new(&s, SpeechParts::LEVELS);
        assert_eq!(analysis.computed(), SpeechParts::NONE, "nothing until read");
        analysis.levels();
        assert_eq!(analysis.computed(), SpeechParts::LEVELS);
        analysis.asv_audio();
        assert_eq!(
            analysis.computed(),
            SpeechParts::LEVELS.with(SpeechParts::ASV_AUDIO)
        );
        // A single-mic session has no secondary track.
        assert!(analysis.secondary_levels().is_none());
    }

    #[test]
    fn unaligned_second_mic_gets_its_own_level_pass() {
        let (_, user) = crate::test_support::shared_tiny_system();
        let mut dual = user.clone();
        dual.phone = PhoneModel::Nexus4;
        let mut s = ScenarioBuilder::genuine(&dual).capture(&SimRng::from_seed(5));
        let a2 = s.audio2.as_mut().expect("dual-mic session");
        a2.truncate(a2.len() - 1000);
        assert_matches_oracles(&s, "truncated second mic");
    }

    #[test]
    fn empty_audio_yields_empty_parts() {
        let (_, user) = crate::test_support::shared_tiny_system();
        let mut s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(4));
        s.audio.clear();
        let analysis = SessionAnalysis::new(&s, SpeechParts::LEVELS);
        assert!(analysis.levels().is_empty());
        assert!(analysis.asv_audio().is_empty());
    }
}
