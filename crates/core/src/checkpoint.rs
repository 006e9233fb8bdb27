//! Periodic DNN checkpoints (paper §4.2).
//!
//! The paper's `Algorithm` class "save[s] the checkpoints of the DNNs
//! periodically to restore DNN parameters after failure, which provides
//! sufficient fault tolerance for DRL algorithms without significant
//! overheads". The learner process writes a [`ParamBlob`] snapshot every
//! `every_sessions` training sessions; [`load_latest`] restores one into a
//! new deployment via `DeploymentConfig::initial_params`.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use xingtian_algos::payload::ParamBlob;
use xingtian_message::codec::{Decode, Encode};

/// Checkpointing policy for a deployment.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory checkpoints are written into (created if absent).
    pub dir: PathBuf,
    /// Training sessions between checkpoints.
    pub every_sessions: u64,
    /// How many versioned checkpoints to retain (oldest are deleted;
    /// `latest.ckpt` always exists in addition).
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

    /// Notifies the checkpointer that a training session completed; persists
    /// `blob` when the period elapses. Returns the path written, if any.
    ///
    /// I/O failures are reported but intentionally non-fatal: losing a
    /// checkpoint must not kill training.
    pub fn on_session(&mut self, blob: &ParamBlob) -> Option<PathBuf> {
        self.sessions_since += 1;
        if self.sessions_since < self.config.every_sessions {
            return None;
        }
        self.sessions_since = 0;
        match self.write(blob) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("checkpoint write failed (continuing): {e}");
                None
            }
        }
    }

    fn write(&mut self, blob: &ParamBlob) -> io::Result<PathBuf> {
        let bytes = blob.to_bytes();
        let path = self.config.dir.join(format!("checkpoint_v{}.ckpt", blob.version));
        atomic_write(&path, &bytes)?;
        atomic_write(&self.config.dir.join("latest.ckpt"), &bytes)?;
        self.written.push(path.clone());
        while self.written.len() > self.config.keep {
            let old = self.written.remove(0);
            let _ = fs::remove_file(old);
        }
        Ok(path)
    }
}

fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Loads a checkpoint file written by [`Checkpointer`].
///
/// # Errors
///
/// Returns an error if the file is unreadable or not a valid checkpoint.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<ParamBlob, String> {
    let bytes = fs::read(path.as_ref())
        .map_err(|e| format!("cannot read {}: {e}", path.as_ref().display()))?;
    ParamBlob::from_bytes(&bytes).map_err(|e| format!("corrupt checkpoint: {e}"))
}

/// Loads the newest restorable checkpoint from a checkpoint directory.
///
/// Prefers `latest.ckpt`; if that file is missing, truncated, or corrupt
/// (e.g. the writer died mid-rename or the disk flipped bits), falls back to
/// the versioned `checkpoint_v{N}.ckpt` files in descending version order and
/// returns the first one that decodes. A crash can cost at most the
/// checkpoints that were themselves damaged — never the whole history.
///
/// # Errors
///
/// Returns an error if no file in the directory decodes as a checkpoint,
/// naming the primary (`latest.ckpt`) failure.
pub fn load_latest(dir: impl AsRef<Path>) -> Result<ParamBlob, String> {
    let dir = dir.as_ref();
    let primary = match load_checkpoint(dir.join("latest.ckpt")) {
        Ok(blob) => return Ok(blob),
        Err(e) => e,
    };
    // Fall back to versioned checkpoints, newest first.
    let mut versioned: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .map_err(|e| format!("{primary}; cannot scan {}: {e}", dir.display()))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let version =
                name.strip_prefix("checkpoint_v")?.strip_suffix(".ckpt")?.parse::<u64>().ok()?;
            Some((version, path))
        })
        .collect();
    versioned.sort_by_key(|&(version, _)| std::cmp::Reverse(version));
    for (version, path) in &versioned {
        if let Ok(blob) = load_checkpoint(path) {
            eprintln!(
                "checkpoint: latest.ckpt unusable ({primary}); restored v{version} from {}",
                path.display()
            );
            return Ok(blob);
        }
    }
    Err(format!("{primary}; no versioned checkpoint in {} decodes either", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xt-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn blob(version: u64) -> ParamBlob {
        ParamBlob { version, params: vec![version as f32; 16] }
    }

    #[test]
    fn writes_on_period_and_round_trips() {
        let dir = tmpdir("rt");
        let mut c = Checkpointer::new(CheckpointConfig::new(&dir, 2)).unwrap();
        assert!(c.on_session(&blob(1)).is_none(), "period not reached");
        let path = c.on_session(&blob(2)).expect("period reached");
        assert!(path.exists());
        let restored = load_latest(&dir).unwrap();
        assert_eq!(restored, blob(2));
        assert_eq!(load_checkpoint(path).unwrap(), blob(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_deletes_oldest() {
        let dir = tmpdir("keep");
        let mut cfg = CheckpointConfig::new(&dir, 1);
        cfg.keep = 2;
        let mut c = Checkpointer::new(cfg).unwrap();
        for v in 1..=4 {
            c.on_session(&blob(v)).expect("every session checkpoints");
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
    }

    #[test]
    fn corrupt_checkpoint_is_an_error() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("latest.ckpt"), b"\xff\xfe").unwrap();
        assert!(load_latest(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes checkpoints v1..=3 and returns the directory.
    fn dir_with_history(tag: &str) -> PathBuf {
        let dir = tmpdir(tag);
        let mut c = Checkpointer::new(CheckpointConfig::new(&dir, 1)).unwrap();
        for v in 1..=3 {
            c.on_session(&blob(v)).expect("every session checkpoints");
        }
        dir
    }

    #[test]
    fn bit_flipped_latest_falls_back_to_newest_versioned() {
        let dir = dir_with_history("bitflip");
        // Flip a bit in the params-length varint: the decoder sees an
        // inflated length and fails with a short read.
        let mut bytes = fs::read(dir.join("latest.ckpt")).unwrap();
        bytes[8] ^= 0x40;
        fs::write(dir.join("latest.ckpt"), &bytes).unwrap();
        assert!(load_checkpoint(dir.join("latest.ckpt")).is_err(), "corruption must bite");
        let restored = load_latest(&dir).expect("versioned fallback");
        assert_eq!(restored, blob(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_latest_falls_back_to_newest_versioned() {
        let dir = dir_with_history("trunc");
        let bytes = fs::read(dir.join("latest.ckpt")).unwrap();
        fs::write(dir.join("latest.ckpt"), &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_checkpoint(dir.join("latest.ckpt")).is_err(), "truncation must bite");
        let restored = load_latest(&dir).expect("versioned fallback");
        assert_eq!(restored, blob(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_skips_corrupt_versioned_checkpoints() {
        let dir = dir_with_history("skip");
        // Both latest and the newest versioned checkpoint are damaged; the
        // loader must reach back to v2.
        fs::write(dir.join("latest.ckpt"), b"").unwrap();
        let mut bytes = fs::read(dir.join("checkpoint_v3.ckpt")).unwrap();
        bytes[8] ^= 0x40;
        fs::write(dir.join("checkpoint_v3.ckpt"), &bytes).unwrap();
        let restored = load_latest(&dir).expect("reaches back past damaged v3");
        assert_eq!(restored, blob(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_checkpoints_corrupt_is_an_error_naming_the_primary() {
        let dir = dir_with_history("hopeless");
        for name in ["latest.ckpt", "checkpoint_v1.ckpt", "checkpoint_v2.ckpt", "checkpoint_v3.ckpt"]
        {
            fs::write(dir.join(name), b"\x00").unwrap();
        }
        let err = load_latest(&dir).unwrap_err();
        assert!(err.contains("corrupt checkpoint"), "primary failure named: {err}");
        assert!(err.contains("no versioned checkpoint"), "fallback exhaustion named: {err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
