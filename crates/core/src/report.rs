//! Resumable figure reproduction: fidelity selection and per-point
//! checkpoints for the report binaries.
//!
//! The paper's figures are regenerated by the `src/bin` report binaries at
//! three [`Fidelity`] tiers. At `Fidelity::Paper` (5 µm ONI cells,
//! ~2.6 M unknowns) each thermal study costs minutes of solve time and the
//! Figure 12 matrix runs nine of them — a multi-hour campaign that must
//! not restart from scratch after an interruption. Two pieces support
//! that:
//!
//! * [`FigureCli`] — the shared command line of the figure binaries
//!   (`--fidelity tiny|fast|paper`, `--fresh`), with the
//!   `FIGURE_FIDELITY` environment variable as a scriptable fallback,
//! * [`CheckpointStore`] — a directory of per-point JSON files. Completed
//!   sweep points are written as soon as they finish; a re-run loads them
//!   instead of re-solving, so only the missing points pay for solves.
//!
//! Checkpointing is enabled automatically at paper fidelity (the only tier
//! where a restart is expensive) and skipped below it, where a full re-run
//! costs seconds.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use vcsel_arch::Fidelity;

use crate::FlowError;

/// Parses a fidelity name as accepted by `--fidelity` / `FIGURE_FIDELITY`.
///
/// # Errors
///
/// Returns [`FlowError::BadConfig`] for anything other than
/// `tiny` / `fast` / `paper` (case-insensitive).
pub fn parse_fidelity(name: &str) -> Result<Fidelity, FlowError> {
    match name.to_ascii_lowercase().as_str() {
        "tiny" => Ok(Fidelity::Tiny),
        "fast" => Ok(Fidelity::Fast),
        "paper" => Ok(Fidelity::Paper),
        other => Err(FlowError::BadConfig {
            reason: format!("unknown fidelity '{other}' (expected tiny, fast or paper)"),
        }),
    }
}

/// The lower-case label of a fidelity tier (checkpoint directory names,
/// log lines).
pub fn fidelity_label(fidelity: Fidelity) -> &'static str {
    match fidelity {
        Fidelity::Tiny => "tiny",
        Fidelity::Fast => "fast",
        Fidelity::Paper => "paper",
    }
}

/// Parsed command line shared by the figure report binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigureCli {
    /// Mesh fidelity of the thermal studies.
    pub fidelity: Fidelity,
    /// Ignore existing checkpoints and recompute every point.
    pub fresh: bool,
}

impl FigureCli {
    /// Parses the process arguments and environment: `--fidelity <tier>`
    /// (or `--fidelity=<tier>`) beats the `FIGURE_FIDELITY` environment
    /// variable beats `default`; `--fresh` discards checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadConfig`] for an unknown fidelity name or an
    /// unrecognized flag.
    pub fn parse(default: Fidelity) -> Result<Self, FlowError> {
        Self::from_args(std::env::args().skip(1), std::env::var("FIGURE_FIDELITY").ok(), default)
    }

    /// [`FigureCli::parse`] over explicit inputs (testable without
    /// touching the process environment).
    ///
    /// # Errors
    ///
    /// Same contract as [`FigureCli::parse`].
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
        env_fidelity: Option<String>,
        default: Fidelity,
    ) -> Result<Self, FlowError> {
        let mut flag_fidelity = None;
        let mut fresh = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--fresh" {
                fresh = true;
            } else if arg == "--fidelity" {
                let name = args.next().ok_or_else(|| FlowError::BadConfig {
                    reason: "--fidelity needs a value (tiny, fast or paper)".into(),
                })?;
                flag_fidelity = Some(parse_fidelity(&name)?);
            } else if let Some(name) = arg.strip_prefix("--fidelity=") {
                flag_fidelity = Some(parse_fidelity(name)?);
            } else {
                return Err(FlowError::BadConfig {
                    reason: format!(
                        "unknown argument '{arg}' (expected --fidelity <tier> or --fresh)"
                    ),
                });
            }
        }
        // A valid flag wins outright — the environment variable is only
        // consulted (and therefore only validated) when no flag is given,
        // so a stale `FIGURE_FIDELITY` export cannot veto an explicit
        // `--fidelity`.
        let fidelity = match (flag_fidelity, env_fidelity) {
            (Some(f), _) => f,
            (None, Some(name)) => parse_fidelity(&name)?,
            (None, None) => default,
        };
        Ok(Self { fidelity, fresh })
    }

    /// The checkpoint store a figure binary should use: per-point resume
    /// under `reports/checkpoints/<figure>_<fidelity>` at paper fidelity,
    /// `None` below it (restarts are cheap) or when `--fresh` was given.
    pub fn checkpoints(&self, figure: &str) -> Option<CheckpointStore> {
        if self.fidelity == Fidelity::Paper && !self.fresh {
            Some(CheckpointStore::new(
                Path::new("reports")
                    .join("checkpoints")
                    .join(format!("{figure}_{}", fidelity_label(self.fidelity))),
            ))
        } else {
            None
        }
    }
}

/// A directory of per-point JSON checkpoints for resumable sweeps.
///
/// Each completed sweep point is stored under a caller-chosen key as soon
/// as it is computed; re-running the sweep loads the stored points and
/// only solves the missing ones. Unreadable or stale-schema files behave
/// like missing points (they are recomputed and overwritten), so a
/// checkpoint directory can never wedge a run.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created lazily on the first
    /// [`CheckpointStore::store`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: &str) -> PathBuf {
        keyed_path(&self.dir, key, "json")
    }

    /// Loads the checkpoint stored under `key`, or `None` if it is
    /// missing or unparsable (a stale schema is recomputed, not fatal).
    pub fn load<T: Deserialize>(&self, key: &str) -> Option<T> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Stores `value` under `key`, creating the directory if needed.
    ///
    /// The write is atomic: the JSON lands in a `<key>.json.tmp` sibling
    /// first and is renamed over the final path, so a kill mid-write can
    /// never leave a truncated checkpoint — the worst case is a stale tmp
    /// file, which [`CheckpointStore::load`] never looks at.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Report`] when the directory or file cannot be
    /// written.
    pub fn store<T: Serialize>(&self, key: &str, value: &T) -> Result<(), FlowError> {
        let path = self.path(key);
        let text = serde_json::to_string_pretty(value).map_err(|e| FlowError::Report {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        write_atomic(&path, text.as_bytes())
    }
}

/// `<dir>/<key>.<ext>`, with every character of `key` other than an ASCII
/// letter, digit, `-` or `_` replaced by `_`: keys come from figure, point
/// and configuration names, and the file names must stay portable.
pub(crate) fn keyed_path(dir: &Path, key: &str, ext: &str) -> PathBuf {
    let safe: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    dir.join(format!("{safe}.{ext}"))
}

/// Writes `bytes` to `path` atomically, creating its directory if needed:
/// they land in a `<path>.tmp` sibling first, which is renamed over
/// `path`, so a kill mid-write leaves at worst a stale tmp file, never a
/// truncated `path`. Both on-disk stores write through here.
///
/// # Errors
///
/// Returns [`FlowError::Report`] when the directory or file cannot be
/// written.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), FlowError> {
    let io = |e: std::io::Error| FlowError::Report {
        path: path.display().to_string(),
        reason: e.to_string(),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fidelity_names_round_trip() {
        for f in [Fidelity::Tiny, Fidelity::Fast, Fidelity::Paper] {
            assert_eq!(parse_fidelity(fidelity_label(f)).unwrap(), f);
        }
        assert_eq!(parse_fidelity("PAPER").unwrap(), Fidelity::Paper);
        assert!(parse_fidelity("ludicrous").is_err());
    }

    #[test]
    fn cli_precedence_flag_beats_env_beats_default() {
        let cli = FigureCli::from_args(args(&[]), None, Fidelity::Fast).unwrap();
        assert_eq!(cli, FigureCli { fidelity: Fidelity::Fast, fresh: false });

        let cli = FigureCli::from_args(args(&[]), Some("tiny".into()), Fidelity::Fast).unwrap();
        assert_eq!(cli.fidelity, Fidelity::Tiny);

        let cli = FigureCli::from_args(
            args(&["--fidelity", "paper", "--fresh"]),
            Some("tiny".into()),
            Fidelity::Fast,
        )
        .unwrap();
        assert_eq!(cli, FigureCli { fidelity: Fidelity::Paper, fresh: true });

        // A stale/invalid env var must not veto an explicit valid flag.
        let cli = FigureCli::from_args(
            args(&["--fidelity", "paper"]),
            Some("ludicrous".into()),
            Fidelity::Fast,
        )
        .unwrap();
        assert_eq!(cli.fidelity, Fidelity::Paper);

        let cli = FigureCli::from_args(args(&["--fidelity=paper"]), None, Fidelity::Fast).unwrap();
        assert_eq!(cli.fidelity, Fidelity::Paper);

        assert!(FigureCli::from_args(args(&["--fidelity"]), None, Fidelity::Fast).is_err());
        assert!(FigureCli::from_args(args(&["--turbo"]), None, Fidelity::Fast).is_err());
        assert!(FigureCli::from_args(args(&[]), Some("nope".into()), Fidelity::Fast).is_err());
    }

    #[test]
    fn checkpoints_only_at_paper_fidelity_and_not_fresh() {
        let paper = FigureCli { fidelity: Fidelity::Paper, fresh: false };
        let store = paper.checkpoints("fig12").expect("paper checkpoints");
        assert!(store.dir().ends_with("fig12_paper"));
        assert!(FigureCli { fidelity: Fidelity::Paper, fresh: true }.checkpoints("f").is_none());
        assert!(FigureCli { fidelity: Fidelity::Fast, fresh: false }.checkpoints("f").is_none());
    }

    #[test]
    fn store_round_trips_and_tolerates_garbage() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Point {
            label: String,
            values: Vec<f64>,
            done: bool,
        }
        let dir = std::env::temp_dir().join(format!("vcsel_ckpt_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);

        assert!(store.load::<Point>("missing").is_none());
        let p = Point { label: "uniform/18mm".into(), values: vec![1.5, -2.0], done: true };
        store.store("uniform_18.0mm", &p).unwrap();
        // The key is sanitized to a portable filename.
        assert!(store.dir().join("uniform_18_0mm.json").exists());
        assert_eq!(store.load::<Point>("uniform_18.0mm"), Some(p));

        // Garbage on disk acts like a missing point, never an error.
        std::fs::write(store.dir().join("broken.json"), "{not json").unwrap();
        assert!(store.load::<Point>("broken").is_none());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_is_recomputed_and_atomically_rewritten() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Point {
            label: String,
            done: bool,
        }
        let dir = std::env::temp_dir().join(format!("vcsel_ckpt_trunc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(&dir);

        // Simulate a kill mid-write under the old non-atomic scheme: a
        // prefix of valid JSON, cut off.
        let full = serde_json::to_string_pretty(&Point { label: "p".into(), done: true }).unwrap();
        std::fs::write(store.dir().join("point.json"), &full[..full.len() / 2]).unwrap();

        // The truncated file reads as missing → the caller recomputes...
        assert!(store.load::<Point>("point").is_none());
        let recomputed = Point { label: "p".into(), done: true };
        store.store("point", &recomputed).unwrap();
        // ...and the rewrite both round-trips and leaves no tmp droppings.
        assert_eq!(store.load::<Point>("point"), Some(recomputed));
        assert!(!store.dir().join("point.json.tmp").exists());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
