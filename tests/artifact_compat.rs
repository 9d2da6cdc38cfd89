//! Golden-artifact compatibility gate (runs in CI): committed bundle
//! files must keep decoding under the current codec. If the v1 test
//! fails, an encoding change broke compatibility with already-shipped
//! bundles — bump the artifact's format version (and keep a decode path
//! for the old one) instead of silently changing the layout.
//!
//! Two goldens are committed, one per format generation:
//!
//! - `golden_bundle_v1.bin` — written before the MCFG/MFEX v2 bump
//!   (pre-`asv_quantized`, pre-`fused_frontend`). Decode-only: the
//!   current encoder intentionally writes the newer layout, so v1 bytes
//!   are never reproduced, only accepted.
//! - `golden_bundle_v2.bin` — written by the current encoder. This one
//!   must re-encode byte-identically, which is the determinism gate for
//!   the *current* layout.
//!
//! Both were first written by the `train_bundle` example
//! (`cargo run --example train_bundle -- --tiny --seed 424242
//! --notes "golden artifact vN" --out results/golden_bundle_vN.bin`), but
//! that command no longer reproduces them: the generators and trainer have
//! moved since, and it now writes a different bundle (603,810 B against
//! the committed 573,026 B for v2, first differing at byte 6). Treat both
//! as frozen decode/re-encode fixtures. Regenerating them waits for the
//! one-command results regeneration (`scripts/regen_results.sh`, ROADMAP
//! item 1).
//!
//! A third golden covers the durable store's on-disk format:
//!
//! - `golden_wal_v1.bin` — a write-ahead log of three delta enrollments
//!   (speakers 9001–9003) on top of `golden_bundle_v2.bin`, produced by
//!   the deterministic demo-store builder:
//!   `cargo run --example store_admin -- demo DIR
//!    --bundle results/golden_bundle_v2.bin` (then commit `DIR/wal.log`).
//!   It must keep replaying to the pinned generation and speaker set,
//!   and re-encoding every record must reproduce the file byte for byte.
//!
//! A fourth gate pins what training and enrollment *produce* rather than
//! what the codec accepts: `pinned_training_and_enrollment_bytes` trains
//! the tiny bundle at a fixed seed and the default bundle the benchmarks
//! serve, enrolls two speakers on each, and checks the FNV-1a/64 of every
//! bundle and model. Training fans out over every CPU, so run it under
//! `taskset -c 0` as well to check that the sequential fallback gives the
//! same bytes. ISV is not a bundle option; its training pin runs on Table
//! I's path (`exp_table1`'s `isv_training_and_enrollment_bytes_are_pinned`).

use magshield::core::artifact::ModelBundle;
use magshield::core::pipeline::DefenseSystem;
use magshield::core::registry::ModelRegistry;
use magshield::core::scenario::UserContext;
use magshield::core::store::admin::{DEMO_SEED, DEMO_SPEAKERS};
use magshield::core::store::wal::scan_wal;
use magshield::core::store::{GoldenBase, TailStatus, BASE_FILE, WAL_FILE};
use magshield::core::trainer::{BootstrapConfig, Trainer, TRAINER_PRODUCER};
use magshield::ml::codec::{fnv1a_64, BinaryCodec};

const GOLDEN_V1: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/golden_bundle_v1.bin"
));

const GOLDEN_V2: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/golden_bundle_v2.bin"
));

#[test]
fn golden_v1_bundle_still_decodes() {
    let bundle = ModelBundle::from_bytes(GOLDEN_V1).expect(
        "codec format break: the committed v1 bundle no longer decodes — \
         keep a decode path for every shipped format version",
    );
    bundle.validate().expect("golden bundle validates");
    assert_eq!(bundle.meta.producer, TRAINER_PRODUCER);
    assert_eq!(bundle.meta.notes, "golden artifact v1");
    assert_eq!(bundle.speakers.len(), 1);
    // Fields the v1 layout predates must come back as their defaults.
    assert!(!bundle.config.asv_quantized);
}

#[test]
fn golden_v1_bundle_migrates_to_a_stable_current_encoding() {
    // Re-encoding a v1 bundle upgrades it to the current layout, so the
    // bytes legitimately differ from the v1 file. What must hold is that
    // the upgraded bytes are a fixpoint: decode → encode reproduces them
    // exactly, proving the migration lands on the deterministic current
    // format rather than drifting on every pass.
    let bundle = ModelBundle::from_bytes(GOLDEN_V1).expect("decodes");
    let upgraded = bundle.to_bytes();
    let reread = ModelBundle::from_bytes(&upgraded).expect("upgraded bytes decode");
    reread.validate().expect("upgraded bundle validates");
    assert_eq!(
        reread.to_bytes(),
        upgraded,
        "current-version encoding must be a decode/encode fixpoint"
    );
}

#[test]
fn golden_v2_bundle_reencodes_byte_identically() {
    // Encoding is deterministic, so decode → encode must reproduce the
    // current-generation file exactly; a mismatch means the writer
    // changed format without a version bump even though the reader still
    // accepts the old bytes.
    let bundle = ModelBundle::from_bytes(GOLDEN_V2).expect("decodes");
    bundle.validate().expect("golden bundle validates");
    assert_eq!(bundle.meta.notes, "golden artifact v2");
    assert_eq!(
        bundle.to_bytes(),
        GOLDEN_V2,
        "encoder no longer reproduces the v2 layout"
    );
}

#[test]
fn golden_bundles_boot_a_serving_system() {
    for golden in [GOLDEN_V1, GOLDEN_V2] {
        let bundle = ModelBundle::from_bytes(golden).expect("decodes");
        let speaker = bundle.speakers[0].speaker_id;
        let system = DefenseSystem::from_bundle(bundle).expect("boots");
        assert_eq!(system.generation(), ModelRegistry::FIRST_GENERATION);
        assert!(system.is_enrolled(speaker));
    }
}

const GOLDEN_WAL: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/golden_wal_v1.bin"
));

/// Reassembles the committed store from its two goldens (the v2 bundle
/// as base, the WAL fixture as log) in a scratch directory.
fn golden_store_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("magshield-goldenwal-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let base = GoldenBase {
        generation: ModelRegistry::FIRST_GENERATION,
        bundle: ModelBundle::from_bytes(GOLDEN_V2).expect("v2 bundle decodes"),
    };
    std::fs::write(dir.join(BASE_FILE), base.to_bytes()).expect("write base");
    std::fs::write(dir.join(WAL_FILE), GOLDEN_WAL).expect("write wal");
    dir
}

#[test]
fn golden_wal_replays_to_the_pinned_state() {
    // Replay compatibility: the committed log must keep recovering the
    // exact generation and speaker set it was written with. A failure
    // means a WAL format or replay-semantics change broke recovery of
    // already-shipped stores — bump the record format version (and keep
    // a decode path) instead.
    let dir = golden_store_dir("replay");
    let (system, recovered) = DefenseSystem::open_durable(&dir)
        .expect("store format break: the committed golden WAL no longer replays");
    assert_eq!(
        recovered.generation,
        ModelRegistry::FIRST_GENERATION + DEMO_SPEAKERS.len() as u64
    );
    assert_eq!(recovered.records_replayed, DEMO_SPEAKERS.len());
    assert_eq!(recovered.torn_bytes_truncated, 0);
    for id in DEMO_SPEAKERS {
        assert!(
            system.is_enrolled(id),
            "speaker {id} lost from the golden WAL (demo seed {DEMO_SEED})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_wal_reencodes_byte_identically() {
    // Determinism gate for the current record layout: every frame in the
    // committed log must be a decode → encode fixpoint, and the frames
    // must tile the file exactly (header included).
    let scan = scan_wal(GOLDEN_WAL).expect("golden WAL scans");
    assert_eq!(scan.tail, TailStatus::Clean);
    let mut reencoded = scan.header.to_bytes();
    for rec in &scan.records {
        assert_eq!(rec.offset, reencoded.len(), "frames tile the log");
        reencoded.extend_from_slice(&rec.record.to_bytes());
    }
    assert_eq!(
        reencoded, GOLDEN_WAL,
        "encoder no longer reproduces the committed WAL layout"
    );
}

/// Newcomer enrollment material shaped like the serving benchmark's:
/// `speakers` synthetic voices, two takes each of one passphrase.
fn newcomer_utterances(seed: u64, speakers: usize) -> Vec<Vec<Vec<f64>>> {
    use magshield::voice::profile::SpeakerProfile;
    use magshield::voice::synth::{FormantSynthesizer, SessionEffects};
    let root = magshield::simkit::rng::SimRng::from_seed(seed).fork("pinned-enroll");
    let synth = FormantSynthesizer::default();
    (0..speakers)
        .map(|k| {
            let profile =
                SpeakerProfile::sample(5000 + k as u32, &root.fork_indexed("who", k as u64));
            (0..2u64)
                .map(|take| {
                    synth.render_digits(
                        &profile,
                        "582931",
                        SessionEffects::neutral(),
                        &root.fork_indexed("take", k as u64 * 2 + take),
                    )
                })
                .collect()
        })
        .collect()
}

/// FNV-1a/64 of a freshly trained bundle, then of each of two speaker
/// models enrolled on its engine.
fn training_fingerprints(cfg: BootstrapConfig, seed: u64) -> Vec<u64> {
    let rng = magshield::simkit::rng::SimRng::from_seed(seed);
    let user = UserContext::sample(&rng.fork("user"));
    let bundle = Trainer::new(cfg).train(&user, &rng.fork("bootstrap"));
    let mut prints = vec![fnv1a_64(&bundle.to_bytes())];
    for (k, takes) in newcomer_utterances(seed, 2).iter().enumerate() {
        let refs: Vec<&[f64]> = takes.iter().map(|u| u.as_slice()).collect();
        let model = bundle.engine.enroll(60_000 + k as u32, &refs);
        prints.push(fnv1a_64(&model.to_bytes()));
    }
    prints
}

/// Pins what training and enrollment produce, bit for bit: the UBM's EM
/// and k-means, the Z-norm cohort terms, MAP adaptation
/// and the leave-one-out genuine reference all feed these bytes; a kernel
/// change that moves any float lands here. The constants were first
/// captured on the scalar per-frame reference kernels, with the genuine
/// reference held in the leave-one-out sub-models' Z-norm units. They
/// were re-taken when the reference moved to the served model's Z-norm
/// units. Decoding both versions showed the engine, config and
/// sound-field bytes equal, and in every speaker model (each bundle's
/// own and the four enrolled here) the GMM weights, means and variances
/// and the `znorm` pair equal bit for bit; only `genuine_ref` differed.
/// The default-sizing constants were captured while training still ran
/// on one thread; the parallel map must reproduce them. All of them were
/// re-taken when the MFCC front end moved to the real-input FFT, whose
/// rounding moves every feature bit (and with it every trained float);
/// the flip audit (`exp_flip_audit`) checks that no verdict moved with
/// them.
#[test]
fn pinned_training_and_enrollment_bytes() {
    let cases = [
        (
            "tiny",
            BootstrapConfig::tiny(),
            424_242,
            [0x173c55ad9a9d9d2d, 0xb4709d101e15cc3e, 0x9bd5640b92428b46],
        ),
        // What `bootstrap_with(&SimRng::from_seed(1), BootstrapConfig::default())`
        // trains (`training_fingerprints` forks the seed the same way):
        // the bundle every benchmark serves.
        (
            "default",
            BootstrapConfig::default(),
            1,
            [0x20cd5787e7b5a8e6, 0x28de5fe966a804c0, 0x37f61769999039b6],
        ),
    ];
    for (name, cfg, seed, want) in cases {
        let got = training_fingerprints(cfg, seed);
        let hex: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
        assert_eq!(
            got,
            want,
            "{name}: trained bundle / enrolled model bytes moved: [{}]",
            hex.join(", ")
        );
    }
}
