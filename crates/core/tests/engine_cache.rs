//! Engine-cache behaviour: warm restores are bitwise-identical and
//! factorization-free; every corruption fixture degrades to a typed error
//! plus a fresh build — never a wrong answer, never a panic.

use vcsel_arch::{SccConfig, SccSystem};
use vcsel_core::cache::{attempt_log, cache_hits, cache_misses};
use vcsel_core::{CacheMode, CacheOutcome, CacheStore, EngineCache};
use vcsel_numerics::artifact::ARTIFACT_VERSION;
use vcsel_numerics::ArtifactError;
use vcsel_thermal::{EngineBlueprint, MultigridConfig, PreconditionerKind, RestoreError};

/// A blueprint for the tiny test system (the same engine
/// `ThermalStudy::new(SccConfig::tiny_test(), ..)` builds).
fn tiny_blueprint() -> (SccConfig, EngineBlueprint) {
    let config = SccConfig::tiny_test();
    let system = SccSystem::build(&config).expect("tiny system builds");
    let spec = system.mesh_spec().expect("tiny mesh spec");
    let blueprint = EngineBlueprint::new(system.design(), &spec).expect("tiny mesh builds");
    (config, blueprint)
}

fn scratch_cache(tag: &str) -> EngineCache {
    let dir = std::env::temp_dir().join(format!("vcsel_engine_cache_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    EngineCache::new(CacheMode::ReadWrite, CacheStore::new(dir))
}

#[test]
fn warm_restore_hits_and_first_solve_is_bitwise_identical() {
    let (config, blueprint) = tiny_blueprint();
    let cache = scratch_cache("warm");
    let key = EngineCache::key(&config, blueprint.content_hash());

    let (hits0, misses0) = (cache_hits(), cache_misses());
    let (mut cold, outcome) = cache.obtain(&config, &blueprint).unwrap();
    assert!(matches!(outcome, CacheOutcome::MissAbsent), "cold probe: {outcome:?}");
    assert!(cache.store().path(&key).exists(), "cold build must persist its artifact");
    assert!(cache_misses() > misses0);

    // The "second process": a new obtain against the same store.
    let (mut warm, outcome) = cache.obtain(&config, &blueprint).unwrap();
    assert!(outcome.is_hit(), "warm probe must restore: {outcome:?}");
    assert!(cache_hits() > hits0, "hit counter must advance");
    // Zero factorizations: the restored engine leads with the blueprint's
    // kind without ever having run a factorization (the prebuilt rung).
    assert_eq!(warm.preconditioner_name(), cold.preconditioner_name());

    // First solve parity: identical field bits and identical CG iteration
    // count — restore changed nothing about the numerics.
    let cold_map = cold.solve().unwrap();
    let warm_map = warm.solve().unwrap();
    assert_eq!(cold.last_iterations(), warm.last_iterations());
    assert_eq!(cold_map.temperatures().len(), warm_map.temperatures().len());
    for (a, b) in cold_map.temperatures().iter().zip(warm_map.temperatures()) {
        assert_eq!(a.to_bits(), b.to_bits(), "restored field must be bitwise identical");
    }

    let _ = std::fs::remove_dir_all(cache.store().dir());
}

#[test]
fn truncated_artifact_falls_back_to_fresh_build() {
    let (config, blueprint) = tiny_blueprint();
    let cache = scratch_cache("trunc");
    let key = EngineCache::key(&config, blueprint.content_hash());
    cache.obtain(&config, &blueprint).unwrap();

    let path = cache.store().path(&key);
    let bytes = std::fs::read(&path).unwrap();

    // Cut below the envelope header: unambiguously truncated.
    std::fs::write(&path, &bytes[..8]).unwrap();
    let (_, outcome) = cache.obtain(&config, &blueprint).unwrap();
    assert!(
        matches!(
            outcome,
            CacheOutcome::MissRejected(RestoreError::Artifact(ArtifactError::Truncated { .. }))
        ),
        "header truncation must surface typed: {outcome:?}"
    );

    // Cut mid-payload: the checksum trailer no longer matches the bytes
    // before it, so the envelope rejects before any payload decoding.
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let (mut ctx, outcome) = cache.obtain(&config, &blueprint).unwrap();
    assert!(
        matches!(
            outcome,
            CacheOutcome::MissRejected(RestoreError::Artifact(
                ArtifactError::Truncated { .. } | ArtifactError::ChecksumMismatch { .. }
            ))
        ),
        "payload truncation must surface typed: {outcome:?}"
    );
    // The fallback engine is fully functional and the bad entry was
    // overwritten with a complete artifact (readwrite mode).
    ctx.solve().unwrap();
    assert_eq!(std::fs::read(&path).unwrap().len(), bytes.len());

    let _ = std::fs::remove_dir_all(cache.store().dir());
}

#[test]
fn flipped_checksum_byte_falls_back_to_fresh_build() {
    let (config, blueprint) = tiny_blueprint();
    let cache = scratch_cache("cksum");
    let key = EngineCache::key(&config, blueprint.content_hash());
    cache.obtain(&config, &blueprint).unwrap();

    let path = cache.store().path(&key);
    let mut bytes = std::fs::read(&path).unwrap();
    // The trailing 8 bytes are the envelope checksum.
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let (mut ctx, outcome) = cache.obtain(&config, &blueprint).unwrap();
    assert!(
        matches!(
            outcome,
            CacheOutcome::MissRejected(RestoreError::Artifact(
                ArtifactError::ChecksumMismatch { .. }
            ))
        ),
        "checksum damage must surface typed: {outcome:?}"
    );
    ctx.solve().unwrap();

    let _ = std::fs::remove_dir_all(cache.store().dir());
}

#[test]
fn version_bump_falls_back_to_fresh_build() {
    let (config, blueprint) = tiny_blueprint();
    let cache = scratch_cache("version");
    let key = EngineCache::key(&config, blueprint.content_hash());
    cache.obtain(&config, &blueprint).unwrap();

    let path = cache.store().path(&key);
    let bytes = std::fs::read(&path).unwrap();
    // Bytes 4..8 hold the little-endian format version; simulate a file
    // from the previous format and one from a future format. Version skew
    // must be reported as such (checked before the checksum), not as
    // generic corruption.
    for version in [ARTIFACT_VERSION - 1, ARTIFACT_VERSION + 1] {
        let mut skewed = bytes.clone();
        skewed[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &skewed).unwrap();

        let (mut ctx, outcome) = cache.obtain(&config, &blueprint).unwrap();
        assert!(
            matches!(
                outcome,
                CacheOutcome::MissRejected(RestoreError::Artifact(ArtifactError::VersionSkew {
                    found,
                    ..
                })) if found == version
            ),
            "version skew must surface typed: {outcome:?}"
        );
        ctx.solve().unwrap();
    }

    let _ = std::fs::remove_dir_all(cache.store().dir());
}

#[test]
fn out_of_range_smoother_bound_falls_back_to_fresh_build() {
    // A multigrid engine artifact stores each level's Chebyshev bound. A
    // bound that is NaN, zero or above its level's Gershgorin bound must be
    // rejected typed even behind a valid checksum (as a crafted file would
    // carry one), and the engine rebuilt fresh.
    let (config, blueprint) = tiny_blueprint();
    let blueprint =
        blueprint.with_kind(PreconditionerKind::Multigrid { config: MultigridConfig::default() });
    let cache = scratch_cache("bound");
    let key = EngineCache::key(&config, blueprint.content_hash());
    let (cold, _) = cache.obtain(&config, &blueprint).unwrap();
    let hierarchy = cold.preconditioner().as_multigrid().expect("multigrid engine").hierarchy();

    // Locate a level whose bound's bit pattern occurs exactly once in the
    // file (a fine-level bound at the Gershgorin cap can repeat a matrix
    // value).
    let path = cache.store().path(&key);
    let bytes = std::fs::read(&path).unwrap();
    let offset = hierarchy
        .smoother_bounds()
        .find_map(|(_, bound)| {
            let pattern = bound.to_le_bytes();
            let mut hits = bytes.windows(8).enumerate().filter(|(_, w)| *w == pattern);
            match (hits.next(), hits.next()) {
                (Some((at, _)), None) => Some(at),
                _ => None,
            }
        })
        .expect("some level's bound is locatable in the artifact");

    for bad in [f64::NAN, 0.0, 1e300] {
        let mut damaged = bytes.clone();
        damaged[offset..offset + 8].copy_from_slice(&bad.to_le_bytes());
        seal(&mut damaged);
        std::fs::write(&path, &damaged).unwrap();

        let (mut ctx, outcome) = cache.obtain(&config, &blueprint).unwrap();
        assert!(
            matches!(
                outcome,
                CacheOutcome::MissRejected(RestoreError::Artifact(
                    ArtifactError::BadStructure { .. }
                ))
            ),
            "bound {bad} must surface typed: {outcome:?}"
        );
        ctx.solve().unwrap();
    }

    let _ = std::fs::remove_dir_all(cache.store().dir());
}

/// Rewrites an envelope's trailing checksum: FNV-1a-64 over the bytes
/// before it, folded in 8-byte little-endian words, then the remainder
/// byte by byte.
fn seal(envelope: &mut [u8]) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let body = envelope.len() - 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = envelope[..body].chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    envelope[body..].copy_from_slice(&h.to_le_bytes());
}

#[test]
fn engine_artifact_is_one_envelope() {
    // The solver state is a section of the engine's envelope, not an
    // envelope of its own: the magic occurs once, at the start, for the
    // IC(0) engine and for the multigrid one.
    let (_, blueprint) = tiny_blueprint();
    let multigrid = blueprint
        .clone()
        .with_kind(PreconditionerKind::Multigrid { config: MultigridConfig::default() });
    for blueprint in [blueprint, multigrid] {
        let engine = blueprint.build().unwrap();
        let bytes = blueprint.engine_artifact(&engine).expect("tiny engines are cacheable");
        let magics: Vec<usize> =
            bytes.windows(4).enumerate().filter(|(_, w)| w == b"VCAF").map(|(at, _)| at).collect();
        assert_eq!(magics, [0], "{} engine artifact", blueprint.kind().name());
    }
}

#[test]
fn key_collision_with_mismatched_content_hash_falls_back() {
    let (config, blueprint) = tiny_blueprint();
    // A different system whose artifact we park under the tiny key — the
    // stored content hash cannot match the tiny blueprint's.
    let other_config = SccConfig { oni_count: config.oni_count + 2, ..config.clone() };
    let other_system = SccSystem::build(&other_config).unwrap();
    let other_spec = other_system.mesh_spec().unwrap();
    let other_blueprint = EngineBlueprint::new(other_system.design(), &other_spec).unwrap();
    let other_engine = other_blueprint.build().unwrap();
    let foreign_bytes =
        other_blueprint.engine_artifact(&other_engine).expect("tiny engines are cacheable");

    let cache = scratch_cache("collision");
    let key = EngineCache::key(&config, blueprint.content_hash());
    cache.store().store(&key, &foreign_bytes).unwrap();

    let (mut ctx, outcome) = cache.obtain(&config, &blueprint).unwrap();
    assert!(
        matches!(outcome, CacheOutcome::MissRejected(RestoreError::ContentMismatch { .. })),
        "hash mismatch must surface typed: {outcome:?}"
    );
    ctx.solve().unwrap();
    // The typed rejection is also in the global attempt log.
    assert!(
        attempt_log().iter().any(|line| line.contains("content mismatch")),
        "attempt log must record the typed rejection: {:?}",
        attempt_log()
    );

    let _ = std::fs::remove_dir_all(cache.store().dir());
}

#[test]
fn read_mode_never_writes() {
    let (config, blueprint) = tiny_blueprint();
    let dir = std::env::temp_dir().join(format!("vcsel_engine_cache_ro_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = EngineCache::new(CacheMode::Read, CacheStore::new(&dir));
    let (_, outcome) = cache.obtain(&config, &blueprint).unwrap();
    assert!(matches!(outcome, CacheOutcome::MissAbsent));
    assert!(!dir.exists(), "read mode must not create cache entries");
    let _ = std::fs::remove_dir_all(&dir);
}
