//! The measurement guard and what every run records about its host.

use std::fs;
use std::path::{Path, PathBuf};

/// Environment variables that change the measured program: executor
/// choice, thread count and fork floor of the engines, armed failpoints,
/// crash-shaped aborts, and IR dumps on stderr.
pub const MEASURED_ENV: [&str; 6] = [
    "INFLOG_EXEC",
    "INFLOG_THREADS",
    "INFLOG_PARALLEL_THRESHOLD",
    "INFLOG_FAILPOINT",
    "INFLOG_SERVE_ABORT",
    "INFLOG_DUMP_IR",
];

/// Refuses builds and environments that would measure another program.
///
/// # Errors
/// The reason the run is refused.
pub fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "built with debug assertions, where every update also re-evaluates \
                    from scratch to cross-check; build with --release"
                .to_string(),
        );
    }
    let set: Vec<&str> = MEASURED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "{} set; these change the measured program, unset them",
            set.join(", ")
        ));
    }
    Ok(())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The benchmark package's directory (build-time path).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The commit of the checkout when it is a git work tree; otherwise an
/// FNV-1a fingerprint of the sources the benchmark builds against, which
/// identifies the code just as well.
pub fn commit() -> String {
    let root = bench_dir().join("..");
    if let Some(sha) = git_head(&root.join(".git")) {
        return sha;
    }
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "crates",
        "vendor",
        "servebench/src",
        "servebench/Cargo.toml",
    ] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        let bytes = fs::read(f).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!(
        "not-a-git-checkout sources-fnv64={h:016x} ({} files)",
        files.len()
    )
}

fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|s| s.trim().to_string()))
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        let keep = path.extension().is_some_and(|e| e == "rs" || e == "toml");
        if keep {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        collect_files(&p, out);
    }
}

/// Filesystem type and mount point holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), format!("{fstype} (mounted at {mount})")));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// A scratch directory under the benchmark package, removed on drop. Stores
/// live here, so they sit on the checkout's own (disk-backed) filesystem.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// # Errors
    /// When the directory cannot be created.
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let path = work_root().join(format!("run-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Where runs keep stores and span files (ignored by git).
pub fn work_root() -> PathBuf {
    bench_dir().join(".work")
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
