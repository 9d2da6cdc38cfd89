//! Ablation: the cascade's defense-in-depth.
//!
//! DESIGN.md calls out the design choice the paper argues for —
//! *complementary* components rather than any single detector. This
//! experiment removes one stage at a time via a real [`StageMask`] — the
//! masked stage never executes, instead of its verdict being filtered out
//! afterwards — and measures the false acceptance rate over a mixed
//! attack set (conventional speakers, earphones, shields, tubes,
//! off-center rigs, ESL, mimicry) plus the false rejection rate over
//! genuine sessions.
//!
//! The interesting rows: removing the loudspeaker detector lets
//! big-magnet attacks through only if the sound field misses them;
//! removing the sound field lets earphones through; removing the ASV
//! lets the live mimic through — each component owns an attack class.
//!
//! ```sh
//! cargo run --release -p magshield-bench --bin exp_ablation
//! ```

use magshield_bench::*;
use magshield_core::cascade::StageMask;
use magshield_core::scenario::{ScenarioBuilder, SourceKind};
use magshield_core::session::SessionData;
use magshield_core::verdict::Component;
use magshield_physics::acoustics::tube::SoundTube;
use magshield_simkit::vec3::Vec3;
use magshield_voice::attacks::AttackKind;
use magshield_voice::devices::{table_iv_catalog, unconventional_catalog};
use magshield_voice::profile::SpeakerProfile;

fn main() {
    let (system, user, rng) = experiment_system();
    let attacker = SpeakerProfile::sample(908, &rng.fork("attacker"));
    let catalog = table_iv_catalog();
    let pc = catalog[0].clone();
    let ear = catalog
        .iter()
        .find(|d| d.name.contains("EarPods"))
        .unwrap()
        .clone();
    let esl = unconventional_catalog()[0].clone();

    // The attack mix (label, sessions). Sessions are captured once; each
    // ablation row re-runs the cascade over them with its own stage mask.
    let mut attack_sets: Vec<(&str, Vec<SessionData>)> = Vec::new();
    let n = 6;
    let capture = |b: ScenarioBuilder, tag: &str, i: u64| -> SessionData {
        b.capture(&rng.fork_indexed(tag, i))
    };
    attack_sets.push((
        "replay/PC-speaker",
        (0..n)
            .map(|i| {
                capture(
                    ScenarioBuilder::machine_attack(
                        &user,
                        AttackKind::Replay,
                        pc.clone(),
                        attacker.clone(),
                    )
                    .at_distance(0.05),
                    "abl-pc",
                    i,
                )
            })
            .collect(),
    ));
    attack_sets.push((
        "replay/earphone",
        (0..n)
            .map(|i| {
                capture(
                    ScenarioBuilder::machine_attack(
                        &user,
                        AttackKind::Replay,
                        ear.clone(),
                        attacker.clone(),
                    )
                    .at_distance(0.05),
                    "abl-ear",
                    i,
                )
            })
            .collect(),
    ));
    attack_sets.push((
        "replay/shielded",
        (0..n)
            .map(|i| {
                capture(
                    ScenarioBuilder::machine_attack(
                        &user,
                        AttackKind::Replay,
                        pc.clone(),
                        attacker.clone(),
                    )
                    .at_distance(0.05)
                    .with_shielding(),
                    "abl-shield",
                    i,
                )
            })
            .collect(),
    ));
    attack_sets.push((
        "replay/sound-tube",
        (0..n)
            .map(|i| {
                let mut b = ScenarioBuilder::machine_attack(
                    &user,
                    AttackKind::Replay,
                    pc.clone(),
                    attacker.clone(),
                )
                .at_distance(0.05);
                b.source = SourceKind::DeviceViaTube {
                    device: pc.clone(),
                    tube: SoundTube::new(0.30, 0.0125),
                };
                capture(b, "abl-tube", i)
            })
            .collect(),
    ));
    attack_sets.push((
        "replay/off-center",
        (0..n)
            .map(|i| {
                capture(
                    ScenarioBuilder::machine_attack(
                        &user,
                        AttackKind::Replay,
                        pc.clone(),
                        attacker.clone(),
                    )
                    .at_distance(0.25)
                    .with_off_center_pivot(Vec3::new(0.0, -0.20, 0.0)),
                    "abl-pivot",
                    i,
                )
            })
            .collect(),
    ));
    attack_sets.push((
        "synthesis/ESL",
        (0..n)
            .map(|i| {
                capture(
                    ScenarioBuilder::machine_attack(
                        &user,
                        AttackKind::Synthesis,
                        esl.clone(),
                        attacker.clone(),
                    )
                    .at_distance(0.05),
                    "abl-esl",
                    i,
                )
            })
            .collect(),
    ));
    attack_sets.push((
        "human mimicry",
        (0..n)
            .map(|i| {
                capture(
                    ScenarioBuilder::mimicry_attack(&user, attacker.clone()),
                    "abl-mimic",
                    i,
                )
            })
            .collect(),
    ));
    let genuine: Vec<SessionData> = (0..20)
        .map(|i| capture(ScenarioBuilder::genuine(&user), "abl-genuine", i))
        .collect();

    // "− distance" drops both range checks (trajectory distance and the
    // dual-mic SLD): they answer the same "is the source at mouth
    // distance" question, so ablating one but not the other would leave
    // the class covered by its twin.
    let ablations: [(&str, StageMask); 5] = [
        ("full cascade", StageMask::all()),
        (
            "− distance",
            StageMask::all()
                .without(Component::Distance)
                .without(Component::Sld),
        ),
        (
            "− sound field",
            StageMask::all().without(Component::SoundField),
        ),
        (
            "− loudspeaker",
            StageMask::all().without(Component::Loudspeaker),
        ),
        (
            "− speaker id",
            StageMask::all().without(Component::SpeakerIdentity),
        ),
    ];

    let mut header = vec!["config", "FRR %"];
    for (name, _) in &attack_sets {
        header.push(name);
    }
    print_header("cascade ablation: FAR per attack class", &header);
    let mut rows = Vec::new();
    for (label, mask) in ablations {
        let masked = system.cascade().with_mask(mask);
        let frr = genuine
            .iter()
            .filter(|s| !masked.run(s, &system.config, system.obs()).0.accepted())
            .count() as f64
            / genuine.len() as f64
            * 100.0;
        let mut cells = vec![frr];
        let mut metrics = vec![("frr_pct".to_string(), frr)];
        for (name, set) in &attack_sets {
            let far = set
                .iter()
                .filter(|s| masked.run(s, &system.config, system.obs()).0.accepted())
                .count() as f64
                / set.len() as f64
                * 100.0;
            cells.push(far);
            metrics.push((format!("far_{}_pct", name.replace('/', "_")), far));
        }
        print_row(label, &cells);
        rows.push(ResultRow {
            experiment: "ablation".into(),
            condition: label.into(),
            metrics,
        });
    }
    write_results("ablation", &rows);
    println!("\nreading: each removed component should leave a specific attack class");
    println!("uncovered (or nearly so) — the cascade is defense-in-depth, not redundancy.");
}
