//! `ppsweep` command-line validation: out-of-range grids are usage errors
//! that exit 1 before any fabric directory or journal is created.

use std::path::PathBuf;
use std::process::Command;

/// A unique scratch path, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ppsweep_cli_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn seeds_at_or_above_2_pow_32_are_a_usage_error() {
    let dir = Scratch::new("seeds");
    let out = Command::new(env!("CARGO_BIN_EXE_ppsweep"))
        .args(["--ns", "16", "--seeds", "4294967296", "--dir"])
        .arg(&dir.0)
        .output()
        .expect("ppsweep runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("--seeds must be below 2^32"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: ppsweep"), "stderr: {stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        !dir.0.exists(),
        "a rejected grid must not create its directory"
    );
}

#[test]
fn worker_ids_at_or_above_max_shards_are_a_usage_error() {
    let dir = Scratch::new("worker");
    let out = Command::new(env!("CARGO_BIN_EXE_ppsweep"))
        .args(["--ns", "16", "--seeds", "2", "--worker", "4096", "--dir"])
        .arg(&dir.0)
        .output()
        .expect("ppsweep runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("shard id 4096"), "stderr: {stderr}");
    assert!(stderr.contains("usage: ppsweep"), "stderr: {stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        !dir.0.exists(),
        "a rejected shard id must not create its directory"
    );
}
