//! Atomic artifact writing for `BENCH_*.json` manifests.
//!
//! Artifacts are written via a temporary file in the destination directory
//! followed by a rename, so a crashed or interrupted run never leaves a
//! truncated manifest for CI (or a concurrent reader) to trip over. The
//! temporary name embeds the process id, so parallel writers to the same
//! directory never collide on the staging file.

use crate::manifest::RunRecord;
use std::io;
use std::path::{Path, PathBuf};

/// The conventional artifact file name for a run: `BENCH_<name>.json`.
#[must_use]
pub fn bench_file_name(name: &str) -> String {
    // Keep file names shell- and CI-friendly regardless of run names.
    let slug: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("BENCH_{slug}.json")
}

/// Writes `text` to `path` atomically (temp file + rename).
///
/// # Errors
///
/// Propagates I/O failures from writing or renaming.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp: PathBuf = path.to_owned();
    tmp.set_file_name(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::write(&tmp, text)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Serializes a manifest and writes it atomically to `path`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_manifest(path: &Path, record: &RunRecord) -> io::Result<()> {
    write_atomic(path, &record.to_string_pretty())
}

/// Reads and validates a manifest from `path`.
///
/// # Errors
///
/// Returns a message for I/O failures, JSON parse errors, or schema
/// violations — always naming the offending path.
pub fn read_manifest(path: &Path) -> Result<RunRecord, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    RunRecord::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lva_obs_artifact_{tag}"));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let mut record = RunRecord::new("smoke");
        record.set_meta("workload", "blackscholes");
        record.push_stat("derived/mpki", 1.5);
        let path = dir.join(bench_file_name(&record.name));
        write_manifest(&path, &record).expect("writes");
        let back = read_manifest(&path).expect("reads");
        assert_eq!(back, record);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn write_leaves_no_temp_files_behind() {
        let dir = tmp_dir("cleanup");
        let record = RunRecord::new("clean");
        write_manifest(&dir.join("BENCH_clean.json"), &record).expect("writes");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let dir = tmp_dir("overwrite");
        let path = dir.join("BENCH_x.json");
        let mut a = RunRecord::new("x");
        a.push_stat("v", 1.0);
        write_manifest(&path, &a).expect("first write");
        let mut b = RunRecord::new("x");
        b.push_stat("v", 2.0);
        write_manifest(&path, &b).expect("second write");
        assert_eq!(read_manifest(&path).expect("reads").stat("v"), Some(2.0));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn read_errors_name_the_path() {
        let dir = tmp_dir("errors");
        let missing = dir.join("BENCH_missing.json");
        let err = read_manifest(&missing).unwrap_err();
        assert!(err.contains("BENCH_missing.json"), "{err}");
        let garbage = dir.join("BENCH_garbage.json");
        std::fs::write(&garbage, "{ not json").expect("write");
        let err = read_manifest(&garbage).unwrap_err();
        assert!(err.contains("BENCH_garbage.json"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bench_file_names_are_sanitized() {
        assert_eq!(bench_file_name("fig4"), "BENCH_fig4.json");
        assert_eq!(bench_file_name("a b/c"), "BENCH_a_b_c.json");
    }
}
