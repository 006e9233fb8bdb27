//! Periodic learner checkpoints (paper §4.2).
//!
//! The paper's `Algorithm` class "save[s] the checkpoints of the DNNs
//! periodically to restore DNN parameters after failure, which provides
//! sufficient fault tolerance for DRL algorithms without significant
//! overheads". The learner process writes its whole [`LearnerState`] every
//! `every_sessions` training sessions, one `checkpoint_v{N}.ckpt` file per
//! version; [`load_latest_state`] is what the supervisor restores a learner
//! from, and [`load_latest`] reads the same file's parameters for a new
//! deployment (`DeploymentConfig::initial_params`) or a serving fleet.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use xingtian_algos::payload::ParamBlob;
use xingtian_algos::LearnerState;
use xingtian_message::codec::{Decode, Encode};

/// Checkpointing policy for a deployment.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory checkpoints are written into (created if absent).
    pub dir: PathBuf,
    /// Training sessions between checkpoints.
    pub every_sessions: u64,
    /// How many versioned checkpoints to retain (oldest are deleted).
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` every `every_sessions` sessions, keeping 3.
    pub fn new(dir: impl Into<PathBuf>, every_sessions: u64) -> Self {
        CheckpointConfig { dir: dir.into(), every_sessions: every_sessions.max(1), keep: 3 }
    }
}

/// Writes checkpoints according to a [`CheckpointConfig`].
#[derive(Debug)]
pub struct Checkpointer {
    config: CheckpointConfig,
    written: Vec<PathBuf>,
    sessions_since: u64,
}

impl Checkpointer {
    /// Creates the checkpointer, ensuring the directory exists.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory cannot be created.
    pub fn new(config: CheckpointConfig) -> io::Result<Self> {
        fs::create_dir_all(&config.dir)?;
        Ok(Checkpointer { config, written: Vec::new(), sessions_since: 0 })
    }

    /// Notifies the checkpointer that a training session completed; when the
    /// period elapses, persists the state `save` returns (called only then).
    /// Returns the path written, if any.
    ///
    /// I/O failures are reported but intentionally non-fatal: losing a
    /// checkpoint must not kill training.
    pub fn on_session(&mut self, save: impl FnOnce() -> LearnerState) -> Option<PathBuf> {
        self.sessions_since += 1;
        if self.sessions_since < self.config.every_sessions {
            return None;
        }
        self.sessions_since = 0;
        match self.write(&save()) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("checkpoint write failed (continuing): {e}");
                None
            }
        }
    }

    /// Writes `checkpoint_v{N}.ckpt` through a synced temporary file and a
    /// rename, then syncs the directory: a crash leaves the old file or the
    /// new one, never a torn one, and a written one stays written.
    fn write(&mut self, state: &LearnerState) -> io::Result<PathBuf> {
        let path = self.config.dir.join(format!("checkpoint_v{}.ckpt", state.blob.version));
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&state.to_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        fs::File::open(&self.config.dir)?.sync_all()?;
        self.written.push(path.clone());
        while self.written.len() > self.config.keep {
            let old = self.written.remove(0);
            let _ = fs::remove_file(old);
        }
        Ok(path)
    }
}

/// Loads a checkpoint file written by [`Checkpointer`].
///
/// # Errors
///
/// Returns an error if the file is unreadable or not a valid checkpoint.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<LearnerState, String> {
    let bytes = fs::read(path.as_ref())
        .map_err(|e| format!("cannot read {}: {e}", path.as_ref().display()))?;
    LearnerState::from_bytes(&bytes).map_err(|e| format!("corrupt checkpoint: {e}"))
}

/// Loads the newest restorable checkpoint from a checkpoint directory: the
/// `checkpoint_v{N}.ckpt` files in descending version order, the first one
/// that decodes. A crash can cost at most the checkpoints that were
/// themselves damaged — never the whole history.
///
/// # Errors
///
/// Returns an error if no file in the directory decodes as a checkpoint,
/// naming the newest one's failure.
pub fn load_latest_state(dir: impl AsRef<Path>) -> Result<LearnerState, String> {
    let dir = dir.as_ref();
    let mut versioned: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .map_err(|e| format!("cannot scan {}: {e}", dir.display()))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let version =
                name.strip_prefix("checkpoint_v")?.strip_suffix(".ckpt")?.parse::<u64>().ok()?;
            Some((version, path))
        })
        .collect();
    versioned.sort_by_key(|&(version, _)| std::cmp::Reverse(version));
    let mut newest = None;
    for (version, path) in &versioned {
        match load_checkpoint(path) {
            Ok(state) => {
                if let Some(e) = &newest {
                    eprintln!("checkpoint: newest unusable ({e}); restored v{version} from {}", path.display());
                }
                return Ok(state);
            }
            Err(e) => {
                newest.get_or_insert(e);
            }
        }
    }
    match newest {
        Some(e) => Err(format!("{e}; no older checkpoint in {} decodes either", dir.display())),
        None => Err(format!("no checkpoint in {}", dir.display())),
    }
}

/// The parameters of [`load_latest_state`]'s checkpoint.
///
/// # Errors
///
/// As [`load_latest_state`].
pub fn load_latest(dir: impl AsRef<Path>) -> Result<ParamBlob, String> {
    load_latest_state(dir).map(|state| state.blob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xt-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn state(version: u64) -> LearnerState {
        let blob = ParamBlob { version, params: vec![version as f32; 16] };
        LearnerState { blob, rngs: vec![[version, 1, 2, 3]], ..LearnerState::default() }
    }

    #[test]
    fn writes_on_period_and_round_trips() {
        let dir = tmpdir("rt");
        let mut c = Checkpointer::new(CheckpointConfig::new(&dir, 2)).unwrap();
        assert!(c.on_session(|| unreachable!("period not reached")).is_none());
        let path = c.on_session(|| state(2)).expect("period reached");
        assert!(path.exists());
        assert_eq!(load_latest_state(&dir).unwrap(), state(2));
        assert_eq!(load_latest(&dir).unwrap(), state(2).blob);
        assert_eq!(load_checkpoint(path).unwrap(), state(2));
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["checkpoint_v2.ckpt"], "one file per checkpoint");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_deletes_oldest() {
        let dir = tmpdir("keep");
        let mut cfg = CheckpointConfig::new(&dir, 1);
        cfg.keep = 2;
        let mut c = Checkpointer::new(cfg).unwrap();
        for v in 1..=4 {
            c.on_session(|| state(v)).expect("every session checkpoints");
        }
        assert!(!dir.join("checkpoint_v1.ckpt").exists());
        assert!(!dir.join("checkpoint_v2.ckpt").exists());
        assert!(dir.join("checkpoint_v3.ckpt").exists());
        assert!(dir.join("checkpoint_v4.ckpt").exists());
        assert_eq!(load_latest(&dir).unwrap().version, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_is_an_error() {
        assert!(load_latest(tmpdir("missing")).is_err());
        let empty = tmpdir("empty");
        fs::create_dir_all(&empty).unwrap();
        assert!(load_latest(&empty).unwrap_err().contains("no checkpoint"));
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn corrupt_checkpoint_is_an_error() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("checkpoint_v1.ckpt"), b"\xff\xfe").unwrap();
        assert!(load_latest(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes checkpoints v1..=3 and returns the directory.
    fn dir_with_history(tag: &str) -> PathBuf {
        let dir = tmpdir(tag);
        let mut c = Checkpointer::new(CheckpointConfig::new(&dir, 1)).unwrap();
        for v in 1..=3 {
            c.on_session(|| state(v)).expect("every session checkpoints");
        }
        dir
    }

    #[test]
    fn bit_flipped_newest_falls_back_to_the_next() {
        let dir = dir_with_history("bitflip");
        // Flip a bit in the params-length varint: the decoder sees an
        // inflated length and fails with a short read.
        let newest = dir.join("checkpoint_v3.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        bytes[8] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        assert!(load_checkpoint(&newest).is_err(), "corruption must bite");
        assert_eq!(load_latest_state(&dir).expect("versioned fallback"), state(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_newest_falls_back_to_the_next() {
        let dir = dir_with_history("trunc");
        let newest = dir.join("checkpoint_v3.ckpt");
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_checkpoint(&newest).is_err(), "truncation must bite");
        assert_eq!(load_latest_state(&dir).expect("versioned fallback"), state(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_skips_every_corrupt_checkpoint() {
        let dir = dir_with_history("skip");
        // The two newest are damaged; the loader must reach back to v1.
        fs::write(dir.join("checkpoint_v3.ckpt"), b"").unwrap();
        let mut bytes = fs::read(dir.join("checkpoint_v2.ckpt")).unwrap();
        bytes[8] ^= 0x40;
        fs::write(dir.join("checkpoint_v2.ckpt"), &bytes).unwrap();
        assert_eq!(load_latest_state(&dir).expect("reaches back past damaged v3 and v2"), state(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_checkpoints_corrupt_is_an_error_naming_the_newest() {
        let dir = dir_with_history("hopeless");
        for name in ["checkpoint_v1.ckpt", "checkpoint_v2.ckpt", "checkpoint_v3.ckpt"] {
            fs::write(dir.join(name), b"\x00").unwrap();
        }
        let err = load_latest(&dir).unwrap_err();
        assert!(err.contains("corrupt checkpoint"), "newest failure named: {err}");
        assert!(err.contains("no older checkpoint"), "fallback exhaustion named: {err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
