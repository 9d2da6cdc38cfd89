//! Adversarial robustness matrix: attack corpus × environment sweep.
//!
//! Scenario diversity is the defense's least-developed axis (ROADMAP
//! item 4): a perf or refactor PR can quietly move FAR/FRR and nothing
//! notices. This module is the harness that closes that hole. It defines
//! a first-class taxonomy of attack *families* (each a deterministic
//! scenario generator) and *environments* (EMF conditions from the
//! paper's §VI evaluation), and runs the full
//! `family × environment × execution-policy` matrix through a
//! [`VerificationServer`] — the same wire path production traffic
//! takes — producing a per-cell FAR/FRR/EER table.
//!
//! The committed table (`results/robustness_matrix.jsonl`) plus the
//! CI smoke slice (`scripts/security_gate.py` over
//! `results/BENCH_robustness.json`) turn the matrix into a security
//! regression gate: any cell's EER drifting beyond tolerance, or any
//! attack family's FAR rising at all, fails the build.
//!
//! Everything here is deterministic under a fixed [`SimRng`] seed —
//! corpus generation twice with the same seed is bit-identical (see
//! `tests/robustness_corpus.rs`).

use crate::cascade::ExecutionPolicy;
use crate::pipeline::DefenseSystem;
use crate::scenario::{ScenarioBuilder, SourceKind, UserContext};
use crate::server::{Client, ServerConfig, VerificationServer};
use crate::session::SessionData;
use crate::verdict::DefenseVerdict;
use magshield_ml::metrics::equal_error_rate;
use magshield_physics::acoustics::tube::SoundTube;
use magshield_physics::magnetics::evasion::ActiveCompensation;
use magshield_physics::magnetics::interference::EmfEnvironment;
use magshield_simkit::rng::SimRng;
use magshield_simkit::vec3::Vec3;
use magshield_voice::attacks::AttackKind;
use magshield_voice::devices::{table_iv_catalog, PlaybackDevice};
use magshield_voice::profile::SpeakerProfile;

/// One attack family of the robustness matrix — a deterministic scenario
/// generator covering a distinct corner of the threat model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackFamily {
    /// Stock loudspeaker replay (§III-A Type 1) through a class-diverse
    /// device rotation.
    Replay,
    /// Replay through a Mu-metal-shielded loudspeaker (Fig. 12b).
    ShieldedReplay,
    /// Replay through an earphone feeding a sound tube, parking the
    /// magnet a tube-length away from the phone (§VII).
    TubeReplay,
    /// Voice conversion (morphing, §III-A Type 2) through a loudspeaker.
    VoiceConversion,
    /// Text-to-speech synthesis (§III-A Type 3) through a loudspeaker.
    Synthesis,
    /// Synthesis trained only on SceneGuard-protected recordings —
    /// scene-consistent noise poisons the attacker's parameter
    /// estimation (PAPERS.md; `magshield_voice::sceneguard`).
    ProtectedSynthesis,
    /// Replay with a MagLive-style active compensation rig suppressing
    /// the loudspeaker's magnetic signature
    /// (`magshield_physics::magnetics::evasion`).
    MagneticEvasion,
    /// Live human mimicry — no loudspeaker, no magnet (§III-A2).
    Mimicry,
}

impl AttackFamily {
    /// Every family, in matrix row order.
    pub fn all() -> [AttackFamily; 8] {
        [
            AttackFamily::Replay,
            AttackFamily::ShieldedReplay,
            AttackFamily::TubeReplay,
            AttackFamily::VoiceConversion,
            AttackFamily::Synthesis,
            AttackFamily::ProtectedSynthesis,
            AttackFamily::MagneticEvasion,
            AttackFamily::Mimicry,
        ]
    }

    /// Stable snake_case name used in JSONL rows and the gate baseline.
    pub fn name(self) -> &'static str {
        match self {
            AttackFamily::Replay => "replay",
            AttackFamily::ShieldedReplay => "shielded_replay",
            AttackFamily::TubeReplay => "tube_replay",
            AttackFamily::VoiceConversion => "voice_conversion",
            AttackFamily::Synthesis => "synthesis",
            AttackFamily::ProtectedSynthesis => "protected_synthesis",
            AttackFamily::MagneticEvasion => "magnetic_evasion",
            AttackFamily::Mimicry => "mimicry",
        }
    }

    /// Builds the attack scenario for trial `trial` of this family.
    ///
    /// Deterministic in `(self, user, trial, rng seed)`: the playback
    /// device rotates through a class-diverse catalog subset and the
    /// attacker's own voice is sampled per trial.
    pub fn scenario(self, user: &UserContext, trial: usize, rng: &SimRng) -> ScenarioBuilder {
        let attacker = SpeakerProfile::sample(
            900 + trial as u32,
            &rng.fork_indexed("attacker", trial as u64),
        );
        let device = rotation_device(trial);
        match self {
            AttackFamily::Replay => {
                ScenarioBuilder::machine_attack(user, AttackKind::Replay, device, attacker)
            }
            AttackFamily::ShieldedReplay => {
                ScenarioBuilder::machine_attack(user, AttackKind::Replay, device, attacker)
                    .with_shielding()
            }
            AttackFamily::TubeReplay => {
                let mut s =
                    ScenarioBuilder::machine_attack(user, AttackKind::Replay, device, attacker);
                s.source = SourceKind::DeviceViaTube {
                    device: earphone_device(),
                    tube: SoundTube::new(0.30, 0.006),
                };
                s
            }
            AttackFamily::VoiceConversion => {
                ScenarioBuilder::machine_attack(user, AttackKind::Morphing, device, attacker)
            }
            AttackFamily::Synthesis => {
                ScenarioBuilder::machine_attack(user, AttackKind::Synthesis, device, attacker)
            }
            AttackFamily::ProtectedSynthesis => ScenarioBuilder::machine_attack(
                user,
                AttackKind::ProtectedSynthesis,
                device,
                attacker,
            ),
            AttackFamily::MagneticEvasion => {
                ScenarioBuilder::machine_attack(user, AttackKind::Replay, device, attacker)
                    .with_magnetic_evasion(ActiveCompensation::tuned())
            }
            AttackFamily::Mimicry => ScenarioBuilder::mimicry_attack(user, attacker),
        }
    }
}

/// EMF environments the matrix sweeps — the paper's quiet lab, Sonata
/// car cabin and iMac-adjacent desktop (§VI, Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// Quiet lab / living room.
    Quiet,
    /// Car front seat (Hyundai Sonata class) — hostile EMF floor.
    CarCabin,
    /// Desk next to a big all-in-one computer (iMac 27" class).
    Desktop,
}

impl EnvKind {
    /// Every environment, in matrix column order.
    pub fn all() -> [EnvKind; 3] {
        [EnvKind::Quiet, EnvKind::CarCabin, EnvKind::Desktop]
    }

    /// Stable snake_case name used in JSONL rows and the gate baseline.
    pub fn name(self) -> &'static str {
        match self {
            EnvKind::Quiet => "quiet",
            EnvKind::CarCabin => "car_cabin",
            EnvKind::Desktop => "desktop",
        }
    }

    /// The interference model for this environment.
    pub fn emf(self) -> EmfEnvironment {
        match self {
            EnvKind::Quiet => EmfEnvironment::quiet(),
            EnvKind::CarCabin => EmfEnvironment::in_car(),
            // The screen sits ~35 cm past the sound source, off to the
            // side — close enough to raise the noise floor on approach.
            EnvKind::Desktop => EmfEnvironment::near_computer(Vec3::new(0.25, 0.35, 0.10)),
        }
    }
}

/// Stable name for an execution policy in rows and baselines.
pub fn policy_name(policy: ExecutionPolicy) -> &'static str {
    match policy {
        ExecutionPolicy::FullEvaluation => "full_evaluation",
        ExecutionPolicy::ShortCircuit => "short_circuit",
    }
}

/// Sizing and coverage of one matrix run.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Families swept (rows).
    pub families: Vec<AttackFamily>,
    /// Environments swept (columns).
    pub environments: Vec<EnvKind>,
    /// Execution policies swept (planes).
    pub policies: Vec<ExecutionPolicy>,
    /// Genuine sessions captured per environment (shared by every family
    /// in that environment).
    pub genuine_per_env: usize,
    /// Attack sessions captured per `family × environment` cell.
    pub attacks_per_cell: usize,
}

impl MatrixSpec {
    /// The full committed matrix (`results/robustness_matrix.jsonl`).
    pub fn full() -> Self {
        Self {
            families: AttackFamily::all().to_vec(),
            environments: EnvKind::all().to_vec(),
            policies: vec![
                ExecutionPolicy::FullEvaluation,
                ExecutionPolicy::ShortCircuit,
            ],
            genuine_per_env: 20,
            attacks_per_cell: 12,
        }
    }

    /// The CI smoke slice: full family/environment/policy coverage,
    /// reduced trial counts — enough sessions for the FAR no-rise gate
    /// to be meaningful, small enough for a shared runner.
    pub fn smoke() -> Self {
        Self {
            genuine_per_env: 8,
            attacks_per_cell: 4,
            ..Self::full()
        }
    }

    /// Total cells this spec produces.
    pub fn cells(&self) -> usize {
        self.families.len() * self.environments.len() * self.policies.len()
    }
}

/// One cell of the robustness matrix.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Attack family name.
    pub family: &'static str,
    /// Environment name.
    pub environment: &'static str,
    /// Execution policy name.
    pub policy: &'static str,
    /// Attack sessions evaluated.
    pub attacks: usize,
    /// Genuine sessions evaluated.
    pub genuine: usize,
    /// False accepts / attacks, percent, at the nominal boundary.
    pub far_pct: f64,
    /// False rejects / genuine, percent, at the nominal boundary.
    pub frr_pct: f64,
    /// Equal error rate, percent, from sweeping the boundary over the
    /// combined scores.
    pub eer_pct: f64,
}

/// FAR/FRR at the nominal decision boundary plus EER from sweeping the
/// boundary multiplier over the combined scores, all in percent.
pub fn rates(genuine: &[DefenseVerdict], attacks: &[DefenseVerdict]) -> (f64, f64, f64) {
    let frr = if genuine.is_empty() {
        0.0
    } else {
        genuine.iter().filter(|v| !v.accepted()).count() as f64 / genuine.len() as f64
    };
    let far = if attacks.is_empty() {
        0.0
    } else {
        attacks.iter().filter(|v| v.accepted()).count() as f64 / attacks.len() as f64
    };
    // EER over "genuineness" scores = negative combined attack score.
    let g: Vec<f64> = genuine.iter().map(|v| -v.combined_score()).collect();
    let a: Vec<f64> = attacks.iter().map(|v| -v.combined_score()).collect();
    let eer = equal_error_rate(&g, &a);
    (far * 100.0, frr * 100.0, eer * 100.0)
}

/// Captures the genuine population for one environment.
pub fn genuine_sessions(
    user: &UserContext,
    env: EnvKind,
    n: usize,
    rng: &SimRng,
) -> Vec<SessionData> {
    let erng = rng.fork(env.name());
    (0..n)
        .map(|i| {
            ScenarioBuilder::genuine(user)
                .in_environment(env.emf())
                .capture(&erng.fork_indexed("genuine", i as u64))
        })
        .collect()
}

/// Captures the attack population for one `family × environment` cell.
pub fn attack_sessions(
    user: &UserContext,
    family: AttackFamily,
    env: EnvKind,
    n: usize,
    rng: &SimRng,
) -> Vec<SessionData> {
    let crng = rng.fork(env.name()).fork(family.name());
    (0..n)
        .map(|i| {
            family
                .scenario(user, i, &crng)
                .in_environment(env.emf())
                .capture(&crng.fork_indexed("capture", i as u64))
        })
        .collect()
}

/// Verifies `sessions` over the wire, pipelined across the server's
/// pool, in input order. The server runs until the matrix is done, so
/// every session resolves to a verdict.
fn verdicts(client: &Client, sessions: &[SessionData]) -> Vec<DefenseVerdict> {
    let pending: Vec<_> = sessions
        .iter()
        .map(|s| client.submit(s).expect("server is running"))
        .collect();
    pending
        .into_iter()
        .map(|p| p.wait().expect("robustness matrix session verified"))
        .collect()
}

/// Runs the full matrix through verification servers (one per policy
/// and environment) and returns one [`CellResult`] per
/// `family × environment × policy`, in spec order.
///
/// Captures are shared across policies: each environment's corpus is
/// generated once, so a policy comparison sees identical sessions.
pub fn run_matrix(
    system: &DefenseSystem,
    user: &UserContext,
    spec: &MatrixSpec,
    rng: &SimRng,
) -> Vec<CellResult> {
    let mut cells = Vec::with_capacity(spec.cells());
    for &env in &spec.environments {
        let genuine = genuine_sessions(user, env, spec.genuine_per_env, rng);
        let attacks: Vec<(AttackFamily, Vec<SessionData>)> = spec
            .families
            .iter()
            .map(|&f| (f, attack_sessions(user, f, env, spec.attacks_per_cell, rng)))
            .collect();
        for &policy in &spec.policies {
            let server = VerificationServer::spawn_with_policy(
                system.with_fresh_obs(),
                ServerConfig::default().workers,
                policy,
            );
            let client = server.client();
            let genuine_verdicts = verdicts(&client, &genuine);
            for (family, sessions) in &attacks {
                let attack_verdicts = verdicts(&client, sessions);
                let (far, frr, eer) = rates(&genuine_verdicts, &attack_verdicts);
                cells.push(CellResult {
                    family: family.name(),
                    environment: env.name(),
                    policy: policy_name(policy),
                    attacks: attack_verdicts.len(),
                    genuine: genuine_verdicts.len(),
                    far_pct: far,
                    frr_pct: frr,
                    eer_pct: eer,
                });
            }
            server.shutdown();
        }
    }
    cells
}

/// Aggregates per-family FAR (percent) over every cell of that family —
/// the number the security gate refuses to let rise.
pub fn family_far(cells: &[CellResult]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
    for c in cells {
        let accepts = c.far_pct / 100.0 * c.attacks as f64;
        match out.iter_mut().find(|(name, ..)| *name == c.family) {
            Some((_, acc, n)) => {
                *acc += accepts;
                *n += c.attacks;
            }
            None => out.push((c.family, accepts, c.attacks)),
        }
    }
    out.into_iter()
        .map(|(name, accepts, n)| {
            (
                name,
                if n == 0 {
                    0.0
                } else {
                    accepts / n as f64 * 100.0
                },
            )
        })
        .collect()
}

/// The class-diverse loudspeaker rotation machine-based families draw
/// from, indexed by trial (same subset as `exp_fig12`).
fn rotation_device(trial: usize) -> PlaybackDevice {
    const PICKS: [usize; 6] = [0, 3, 7, 12, 18, 23];
    let catalog = table_iv_catalog();
    catalog[PICKS[trial % PICKS.len()]].clone()
}

/// The earphone driving the sound-tube family.
fn earphone_device() -> PlaybackDevice {
    table_iv_catalog()
        .into_iter()
        .find(|d| d.name.contains("EarPods"))
        .expect("catalog has EarPods")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = AttackFamily::all().iter().map(|f| f.name()).collect();
        names.extend(EnvKind::all().iter().map(|e| e.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "names must be unique");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "snake_case only: {n}"
            );
        }
    }

    #[test]
    fn full_spec_meets_the_acceptance_floor() {
        let spec = MatrixSpec::full();
        assert!(spec.families.len() >= 5);
        assert!(spec.environments.len() >= 3);
        assert_eq!(spec.policies.len(), 2);
        assert_eq!(spec.cells(), spec.families.len() * 3 * 2);
    }

    #[test]
    fn smoke_spec_keeps_full_coverage() {
        let smoke = MatrixSpec::smoke();
        let full = MatrixSpec::full();
        assert_eq!(smoke.families, full.families);
        assert_eq!(smoke.environments, full.environments);
        assert_eq!(smoke.policies, full.policies);
        assert!(smoke.attacks_per_cell < full.attacks_per_cell);
    }

    #[test]
    fn family_far_aggregates_weighted_by_session_count() {
        let cell = |family, far_pct, attacks| CellResult {
            family,
            environment: "quiet",
            policy: "short_circuit",
            attacks,
            genuine: 4,
            far_pct,
            frr_pct: 0.0,
            eer_pct: 0.0,
        };
        let cells = vec![
            cell("replay", 50.0, 2),
            cell("replay", 0.0, 6),
            cell("mimicry", 25.0, 4),
        ];
        let fars = family_far(&cells);
        let replay = fars.iter().find(|(n, _)| *n == "replay").unwrap().1;
        let mimicry = fars.iter().find(|(n, _)| *n == "mimicry").unwrap().1;
        assert!(
            (replay - 12.5).abs() < 1e-9,
            "1 accept / 8 sessions: {replay}"
        );
        assert!((mimicry - 25.0).abs() < 1e-9);
    }

    #[test]
    fn every_family_builds_a_capturable_scenario() {
        let rng = SimRng::from_seed(11);
        let user = UserContext::sample(&rng.fork("user"));
        for family in AttackFamily::all() {
            let s = family
                .scenario(&user, 0, &rng.fork(family.name()))
                .in_environment(EnvKind::Desktop.emf())
                .capture(&rng.fork_indexed("cap", family as u64));
            assert!(s.validate().is_ok(), "{family:?} session must validate");
        }
    }
}
