//! Persistent engine cache: skip assembly + factorization across processes.
//!
//! [`crate::ThermalStudy`] construction is dominated by the solve-engine
//! setup — FVM assembly plus the preconditioner factorization (the whole
//! multigrid hierarchy at fast/paper fidelity). Those depend only on the
//! *operator*, not on the painted powers, so two processes studying the
//! same `(placement, layout, fidelity, ONI count)` configuration rebuild
//! byte-identical state. This module persists that state between
//! processes:
//!
//! * [`EngineBlueprint`] (in `vcsel_thermal`) names the operator with a
//!   content hash and serializes/restores the factored engine,
//! * [`CacheStore`] is the on-disk side — one artifact file per key under
//!   `reports/cache/`, written atomically (temp file + rename, the
//!   [`crate::CheckpointStore`] discipline) so a kill mid-write can never
//!   leave a truncated artifact,
//! * [`EngineCache`] is the policy layer: the `VCSEL_CACHE` environment
//!   variable selects `off` (default), `read` (restore but never write) or
//!   `readwrite`; every probe lands in a global attempt log and a global
//!   hit/miss counter pair, and emits `cache_probe` / `cache_load` /
//!   `cache_store` telemetry spans.
//!
//! A cache entry is invalidated by content, not by time: the key embeds
//! the blueprint's operator content hash, and restore re-checks the hash
//! *stored inside* the artifact, so a key collision or a stale file for a
//! different conductivity field degrades to a typed
//! [`RestoreError`] in the attempt log and a fresh build — never a wrong
//! answer and never a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vcsel_arch::{OniLayout, PlacementCase, SccConfig};
use vcsel_thermal::{EngineBlueprint, RestoreError, SolveContext};

use crate::report::{fidelity_label, keyed_path, write_atomic};
use crate::FlowError;

/// Default on-disk location of the engine cache, relative to the working
/// directory of the report binaries.
pub const DEFAULT_CACHE_DIR: &str = "reports/cache";

/// Cache-wide hit counter (restores served without any factorization).
// ORDER: Relaxed — independent monotonic counters; readers only ever
// compare totals after the probes they care about have returned.
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Cache-wide miss counter (fresh builds: absent entry, rejected entry, or
/// cache disabled).
// ORDER: Relaxed — same single-counter publication story as CACHE_HITS.
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Most recent probe outcomes, newest last (capped; see [`attempt_log`]).
static ATTEMPTS: Mutex<Vec<String>> = Mutex::new(Vec::new());
const ATTEMPT_LOG_CAP: usize = 64;

/// Total engine-cache hits in this process so far.
pub fn cache_hits() -> u64 {
    // ORDER: Relaxed — monotonic counter read, no associated data.
    CACHE_HITS.load(Ordering::Relaxed)
}

/// Total engine-cache misses (including disabled-mode builds) in this
/// process so far.
pub fn cache_misses() -> u64 {
    // ORDER: Relaxed — monotonic counter read, no associated data.
    CACHE_MISSES.load(Ordering::Relaxed)
}

/// The recent probe attempt log: one `"<key>: <outcome>"` line per
/// engine-cache probe, newest last, capped to the last 64 attempts. A
/// rejected artifact keeps its typed [`RestoreError`] rendering, so the
/// log answers *why* a warm run rebuilt from scratch.
pub fn attempt_log() -> Vec<String> {
    ATTEMPTS.lock().map(|log| log.clone()).unwrap_or_default()
}

fn log_attempt(key: &str, outcome: &str) {
    if let Ok(mut log) = ATTEMPTS.lock() {
        if log.len() >= ATTEMPT_LOG_CAP {
            log.remove(0);
        }
        log.push(format!("{key}: {outcome}"));
    }
}

/// Engine-cache policy, selected by the `VCSEL_CACHE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Never touch the cache (the default): every study builds fresh.
    Off,
    /// Restore from existing artifacts but never write new ones.
    Read,
    /// Restore when possible and persist fresh builds for later processes.
    ReadWrite,
}

impl CacheMode {
    /// Parses a `VCSEL_CACHE` value (case-insensitive): `off`, `read` or
    /// `readwrite`.
    pub fn parse(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "off" => Some(Self::Off),
            "read" => Some(Self::Read),
            "readwrite" => Some(Self::ReadWrite),
            _ => None,
        }
    }

    /// Resolves the mode from `VCSEL_CACHE`; unset or unrecognized values
    /// mean [`CacheMode::Off`] (a typo must never activate stale state).
    pub fn from_env() -> Self {
        match std::env::var("VCSEL_CACHE") {
            Ok(value) => Self::parse(&value).unwrap_or(Self::Off),
            Err(_) => Self::Off,
        }
    }

    /// The lower-case label (log lines, bench records).
    pub fn label(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Read => "read",
            Self::ReadWrite => "readwrite",
        }
    }

    /// Whether probes may read existing artifacts.
    fn reads(self) -> bool {
        matches!(self, Self::Read | Self::ReadWrite)
    }
}

/// What one [`EngineCache::obtain`] probe did — the per-call twin of the
/// global counters, returned so tests and benches can pin cache behaviour
/// without scraping process-global state.
#[derive(Debug)]
pub enum CacheOutcome {
    /// The cache was off; the engine was built fresh without a probe.
    Disabled,
    /// The engine was restored from disk with zero factorizations.
    Hit,
    /// No artifact existed under the key; the engine was built fresh (and
    /// stored, in readwrite mode).
    MissAbsent,
    /// An artifact existed but restore rejected it; the typed reason is
    /// kept and the engine was built fresh (the bad entry is overwritten
    /// in readwrite mode).
    MissRejected(RestoreError),
}

impl CacheOutcome {
    /// Whether the probe was served from disk.
    pub fn is_hit(&self) -> bool {
        matches!(self, Self::Hit)
    }
}

/// A directory of engine artifacts, one `<key>.vcaf` file per entry.
///
/// Writes are atomic (temp file + rename) so concurrent or interrupted
/// processes can never expose a truncated artifact; a reader either sees
/// the complete old bytes or the complete new bytes. Corrupt bytes are the
/// *restore* layer's problem — the store hands them over verbatim and the
/// checksummed envelope rejects them with a typed error.
#[derive(Debug, Clone)]
pub struct CacheStore {
    dir: PathBuf,
}

impl CacheStore {
    /// A store rooted at `dir` (created lazily on the first
    /// [`CacheStore::store`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path for `key` (sanitized to a portable filename).
    pub fn path(&self, key: &str) -> PathBuf {
        keyed_path(&self.dir, key, "vcaf")
    }

    /// Loads the artifact bytes stored under `key`, or `None` when the
    /// file is missing or unreadable (either way: a miss, never an error).
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(key)).ok()
    }

    /// Stores artifact `bytes` under `key`, creating the directory if
    /// needed. Atomic: bytes land in a `.vcaf.tmp` sibling first and are
    /// renamed over the final path.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Report`] when the directory or file cannot be
    /// written.
    pub fn store(&self, key: &str, bytes: &[u8]) -> Result<(), FlowError> {
        write_atomic(&self.path(key), bytes)
    }
}

/// The engine cache: mode + store + the blueprint protocol.
///
/// One instance per study construction; the counters and attempt log it
/// feeds are process-global, so report binaries can print a summary line
/// regardless of where studies were built.
#[derive(Debug, Clone)]
pub struct EngineCache {
    mode: CacheMode,
    store: CacheStore,
}

impl EngineCache {
    /// The production cache: mode from `VCSEL_CACHE`, artifacts under
    /// [`DEFAULT_CACHE_DIR`].
    pub fn from_env() -> Self {
        Self::new(CacheMode::from_env(), CacheStore::new(DEFAULT_CACHE_DIR))
    }

    /// A cache with an explicit mode and store (tests point this at a
    /// temporary directory instead of mutating the process environment).
    pub fn new(mode: CacheMode, store: CacheStore) -> Self {
        Self { mode, store }
    }

    /// The active policy.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The backing store.
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// The cache key for `config`'s engine: every operator-determining
    /// configuration axis (placement, ONI layout, fidelity, ONI count —
    /// the same grouping key [`crate::BatchPlan`] shares engines by) plus
    /// the blueprint's operator content hash. Powers and activity are
    /// deliberately absent: they only move the right-hand side.
    pub fn key(config: &SccConfig, content_hash: u64) -> String {
        let placement = match config.placement {
            PlacementCase::Case1 => "case1".to_string(),
            PlacementCase::Case2 => "case2".to_string(),
            PlacementCase::Case3 => "case3".to_string(),
            PlacementCase::Custom { perimeter } => {
                // Bit-exact: two custom rings share a key iff the
                // perimeter is the same IEEE value.
                format!("custom{:016x}", perimeter.value().to_bits())
            }
        };
        let layout = match config.layout {
            OniLayout::Chessboard => "chessboard",
            OniLayout::Clustered => "clustered",
        };
        format!(
            "engine_{placement}_{layout}_{}_oni{}_{content_hash:016x}",
            fidelity_label(config.fidelity),
            config.oni_count
        )
    }

    /// Obtains an engine for `blueprint`: restore it from the store when
    /// the mode allows and the artifact survives revalidation, otherwise
    /// build fresh (persisting the result in readwrite mode). Every probe
    /// is counted, logged and traced; a rejected artifact is returned as
    /// the typed [`CacheOutcome::MissRejected`] alongside the fresh
    /// engine.
    ///
    /// # Errors
    ///
    /// Propagates fresh-build failures ([`FlowError::Thermal`]) and
    /// readwrite store failures ([`FlowError::Report`]). Restore failures
    /// are *not* errors — they degrade to a fresh build.
    pub fn obtain(
        &self,
        config: &SccConfig,
        blueprint: &EngineBlueprint,
    ) -> Result<(SolveContext, CacheOutcome), FlowError> {
        let telemetry = vcsel_telemetry::global();
        if self.mode == CacheMode::Off {
            let ctx = blueprint.build().map_err(FlowError::from)?;
            // ORDER: Relaxed — monotonic counter bump, publishes nothing.
            CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
            return Ok((ctx, CacheOutcome::Disabled));
        }

        let key = Self::key(config, blueprint.content_hash());
        let probe = telemetry.span("cache", "cache_probe");
        let mut rejection = None;
        if self.mode.reads() {
            if let Some(bytes) = self.store.load(&key) {
                let load = telemetry.span("cache", "cache_load");
                match blueprint.restore(&bytes) {
                    Ok(ctx) => {
                        drop(load);
                        drop(probe);
                        // ORDER: Relaxed — monotonic counter bump.
                        let hits = CACHE_HITS.fetch_add(1, Ordering::Relaxed) + 1;
                        telemetry.counter("cache", "engine_cache_hits", hits as f64);
                        log_attempt(&key, "hit (restored with zero factorizations)");
                        return Ok((ctx, CacheOutcome::Hit));
                    }
                    Err(e) => {
                        log_attempt(&key, &format!("rejected: {e}"));
                        rejection = Some(e);
                    }
                }
            } else {
                log_attempt(&key, "absent");
            }
        }
        drop(probe);

        let ctx = blueprint.build().map_err(FlowError::from)?;
        // ORDER: Relaxed — monotonic counter bump, publishes nothing.
        let misses = CACHE_MISSES.fetch_add(1, Ordering::Relaxed) + 1;
        telemetry.counter("cache", "engine_cache_misses", misses as f64);

        if self.mode == CacheMode::ReadWrite {
            // A non-cacheable engine state (escalated ladder, Jacobi
            // lead rung) yields no artifact; that is not an error.
            if let Some(bytes) = blueprint.engine_artifact(&ctx) {
                let _store_span = telemetry.span("cache", "cache_store");
                self.store.store(&key, &bytes)?;
                log_attempt(&key, "stored");
            }
        }
        let outcome = match rejection {
            Some(e) => CacheOutcome::MissRejected(e),
            None => CacheOutcome::MissAbsent,
        };
        Ok((ctx, outcome))
    }

    /// One human-readable summary line for the report binaries:
    /// process-wide hit/miss totals and the active mode.
    pub fn summary_line() -> String {
        format!(
            "engine cache [{}]: {} hit(s), {} miss(es)",
            CacheMode::from_env().label(),
            cache_hits(),
            cache_misses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_defaults_off() {
        assert_eq!(CacheMode::parse("off"), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse("READ"), Some(CacheMode::Read));
        assert_eq!(CacheMode::parse("ReadWrite"), Some(CacheMode::ReadWrite));
        assert_eq!(CacheMode::parse("on"), None);
        for m in [CacheMode::Off, CacheMode::Read, CacheMode::ReadWrite] {
            assert_eq!(CacheMode::parse(m.label()), Some(m));
        }
    }

    #[test]
    fn key_separates_configurations_and_content() {
        let base = SccConfig::tiny_test();
        let k = EngineCache::key(&base, 7);
        assert!(k.contains("tiny") && k.ends_with("0000000000000007"), "{k}");
        assert_ne!(k, EngineCache::key(&base, 8));
        let more_onis = SccConfig { oni_count: base.oni_count + 2, ..base.clone() };
        assert_ne!(k, EngineCache::key(&more_onis, 7));
        let clustered = SccConfig { layout: OniLayout::Clustered, ..base };
        assert_ne!(k, EngineCache::key(&clustered, 7));
    }

    #[test]
    fn store_round_trips_bytes_atomically() {
        let dir = std::env::temp_dir().join(format!("vcsel_cache_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CacheStore::new(&dir);
        assert!(store.load("missing").is_none());
        store.store("engine_case1/odd key", &[1, 2, 3]).unwrap();
        // The key is sanitized to a portable filename and no tmp remains.
        assert_eq!(store.load("engine_case1/odd key"), Some(vec![1, 2, 3]));
        let path = store.path("engine_case1/odd key");
        assert!(path.file_name().unwrap().to_str().unwrap().ends_with(".vcaf"));
        assert!(!path.with_extension("vcaf.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fidelity_axis_lands_in_the_key() {
        let tiny = SccConfig::tiny_test();
        let fast = SccConfig { fidelity: vcsel_arch::Fidelity::Fast, ..tiny.clone() };
        assert_ne!(EngineCache::key(&tiny, 1), EngineCache::key(&fast, 1));
    }
}
