//! Fault-injection helpers for crash-recovery and transient-I/O testing.
//!
//! A crash in this engine's durability model is fully characterised by the
//! byte length of the WAL that survives: chunk files and the manifest are
//! written and fsynced *before* the record referencing them, and the WAL
//! is pure append, so killing the process at an arbitrary instant leaves
//! (a) a WAL prefix of arbitrary byte length and (b) possibly some
//! orphaned-but-complete chunk files. [`FaultFs`] simulates exactly that:
//! snapshot a database directory, truncate its WAL to any byte offset, or
//! flip bytes to model media corruption.
//!
//! [`FaultVfs`] models the *other* production failure mode — disks that
//! fail while the process lives: a chosen [`Vfs`] call errors transiently
//! (retriable), permanently (every call from there on fails), writes
//! short, or fails its fsync. The transient-fault sweep in
//! `tests/recovery.rs` drives a full workload with every single call site
//! failed each way.
//!
//! [`TempDir`] gives every test its own scratch directory and removes it
//! on drop. Cleanup is panic-safe across *processes*: each directory name
//! carries the creating pid, and every `TempDir::new` sweeps directories
//! whose process is gone — so even an aborting test run leaves litter only
//! until the next run (and the CI hygiene step would catch a sweep
//! regression).

use crate::storage::vfs::{RealFs, Vfs};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

/// Removes scratch directories left by `ongoingdb` test processes that no
/// longer exist — the panic/abort safety net behind [`TempDir`]'s
/// drop-based cleanup. Returns how many stale directories were removed.
pub fn sweep_stale_temp_dirs() -> usize {
    let tmp = std::env::temp_dir();
    let Ok(entries) = fs::read_dir(&tmp) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // Layout: ongoingdb-<label>-<pid>-<n>.
        let Some(rest) = name.strip_prefix("ongoingdb-") else {
            continue;
        };
        let mut parts = rest.rsplitn(3, '-');
        let _n = parts.next();
        let Some(pid) = parts.next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if pid == std::process::id() || process_alive(pid) {
            continue;
        }
        if fs::remove_dir_all(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(target_os = "linux")]
fn process_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn process_alive(_pid: u32) -> bool {
    // Without a portable liveness probe, never reclaim another process's
    // directories — drop-based cleanup still covers the common case.
    true
}

impl TempDir {
    /// Creates a fresh, uniquely named directory tagged with `label`,
    /// first sweeping away directories leaked by dead test processes.
    pub fn new(label: &str) -> TempDir {
        sweep_stale_temp_dirs();
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ongoingdb-{label}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Directory-level fault injection: crash simulation by copy + mutilate.
pub struct FaultFs;

impl FaultFs {
    /// Recursively copies `src` into `dst` (created fresh) — the
    /// "snapshot at the instant of the crash" a recovery test reopens.
    pub fn clone_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dst)?;
        for entry in fs::read_dir(src)? {
            let entry = entry?;
            let to = dst.join(entry.file_name());
            if entry.file_type()?.is_dir() {
                Self::clone_dir(&entry.path(), &to)?;
            } else {
                fs::copy(entry.path(), &to)?;
            }
        }
        Ok(())
    }

    /// Truncates the file at `path` to `len` bytes — the canonical crash:
    /// an append cut short at an arbitrary byte boundary.
    pub fn truncate(path: &Path, len: u64) -> std::io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    /// XOR-flips one byte of the file at `path` — media corruption, which
    /// recovery must *detect*, never silently absorb.
    pub fn flip_byte(path: &Path, offset: u64) -> std::io::Result<()> {
        let mut raw = fs::read(path)?;
        let i = offset as usize % raw.len().max(1);
        if !raw.is_empty() {
            raw[i] ^= 0x01;
        }
        fs::write(path, raw)
    }

    /// Byte length of the file at `path`.
    pub fn file_len(path: &Path) -> std::io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }
}

/// How an injected fault behaves once its call index comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail exactly that call; the retry (a fresh call) succeeds.
    Transient,
    /// Fail that call and every later one — the disk went bad for good.
    Permanent,
}

/// What the injected failure looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The call returns an error having done nothing.
    Error,
    /// A write/append persists only a prefix of the data, then errors —
    /// the torn state a power-cut mid-`write(2)` leaves. Non-write calls
    /// degrade to [`FaultMode::Error`].
    ShortWrite,
    /// `sync`/`sync_dir` report failure (the data may or may not be on
    /// disk — the fsyncgate scenario). Non-sync calls degrade to
    /// [`FaultMode::Error`].
    FailSync,
}

/// The kind of [`Vfs`] call, for fault-site classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `read` / `list`.
    Read,
    /// `write` / `append` / `truncate` / `rename` / `remove` /
    /// `create_dir_all`.
    Write,
    /// `sync` / `sync_dir`.
    Sync,
}

/// One armed fault.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Zero-based index (over all [`Vfs`] calls on this instance) of the
    /// first call to fail.
    pub at: u64,
    /// Transient (fails once) or permanent (fails from there on).
    pub kind: FaultKind,
    /// The failure's shape.
    pub mode: FaultMode,
}

/// A [`Vfs`] that counts every call and fails chosen ones — the
/// transient-I/O analogue of [`FaultFs`]'s crash snapshots.
///
/// Transient failures use `ErrorKind::Interrupted` (which the storage
/// layer's bounded-backoff retry clears); permanent ones use
/// `ErrorKind::Other` (never retried).
#[derive(Debug)]
pub struct FaultVfs {
    inner: RealFs,
    ops: AtomicU64,
    injected: AtomicU64,
    plan: Mutex<Option<FaultPlan>>,
    trace: Mutex<Vec<OpKind>>,
    tracing: bool,
}

impl FaultVfs {
    /// A pass-through instance that records the kind of every call —
    /// how a sweep enumerates the injection sites of a workload.
    pub fn tracing() -> FaultVfs {
        FaultVfs {
            inner: RealFs,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            plan: Mutex::new(None),
            trace: Mutex::new(Vec::new()),
            tracing: true,
        }
    }

    /// An instance armed with one fault.
    pub fn with_fault(plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            inner: RealFs,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            plan: Mutex::new(Some(plan)),
            trace: Mutex::new(Vec::new()),
            tracing: false,
        }
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// The recorded call kinds (tracing instances).
    pub fn trace(&self) -> Vec<OpKind> {
        self.trace.lock().expect("trace lock").clone()
    }

    /// Decides whether the current call (index allocated here) fails.
    /// Returns the mode to apply, if any.
    fn tick(&self, kind: OpKind) -> Option<FaultMode> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.tracing {
            self.trace.lock().expect("trace lock").push(kind);
        }
        let plan = *self.plan.lock().expect("plan lock");
        let plan = plan?;
        let fire = match plan.kind {
            FaultKind::Transient => n == plan.at,
            FaultKind::Permanent => n >= plan.at,
        };
        if !fire {
            return None;
        }
        self.injected.fetch_add(1, Ordering::SeqCst);
        Some(plan.mode)
    }

    fn error(&self, what: &str) -> io::Error {
        let kind = match self.plan.lock().expect("plan lock").expect("armed").kind {
            FaultKind::Transient => io::ErrorKind::Interrupted,
            FaultKind::Permanent => io::ErrorKind::Other,
        };
        io::Error::new(kind, format!("injected fault: {what}"))
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.tick(OpKind::Read) {
            Some(_) => Err(self.error("read")),
            None => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.tick(OpKind::Write) {
            Some(FaultMode::ShortWrite) => {
                let _ = self.inner.write(path, &data[..data.len() / 2]);
                Err(self.error("short write"))
            }
            Some(_) => Err(self.error("write")),
            None => self.inner.write(path, data),
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.tick(OpKind::Write) {
            Some(FaultMode::ShortWrite) => {
                let _ = self.inner.append(path, &data[..data.len() / 2]);
                Err(self.error("short append"))
            }
            Some(_) => Err(self.error("append")),
            None => self.inner.append(path, data),
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match self.tick(OpKind::Sync) {
            Some(_) => Err(self.error("fsync")),
            None => self.inner.sync(path),
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.tick(OpKind::Sync) {
            Some(_) => Err(self.error("dir fsync")),
            None => self.inner.sync_dir(path),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.tick(OpKind::Write) {
            Some(_) => Err(self.error("truncate")),
            None => self.inner.truncate(path, len),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.tick(OpKind::Write) {
            Some(_) => Err(self.error("rename")),
            None => self.inner.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.tick(OpKind::Write) {
            Some(_) => Err(self.error("remove")),
            None => self.inner.remove(path),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        match self.tick(OpKind::Read) {
            Some(_) => Err(self.error("list")),
            None => self.inner.list(dir),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.tick(OpKind::Write) {
            Some(_) => Err(self.error("create dir")),
            None => self.inner.create_dir_all(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdir_is_removed_on_drop() {
        let path;
        {
            let dir = TempDir::new("selftest");
            path = dir.path().to_path_buf();
            fs::write(path.join("f"), b"x").unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn stale_dirs_of_dead_processes_are_swept() {
        // A directory naming a pid that cannot exist is reclaimed by the
        // next TempDir::new (pid_max keeps real pids far below u32::MAX).
        let stale = std::env::temp_dir().join("ongoingdb-stale-4294967295-0");
        fs::create_dir_all(&stale).unwrap();
        fs::write(stale.join("leak"), b"x").unwrap();
        let dir = TempDir::new("sweeper");
        if cfg!(target_os = "linux") {
            assert!(!stale.exists(), "stale dir of a dead pid must be swept");
        } else {
            let _ = fs::remove_dir_all(&stale);
        }
        drop(dir);
    }

    #[test]
    fn clone_truncate_flip() {
        let a = TempDir::new("fault-a");
        let b = TempDir::new("fault-b");
        fs::create_dir_all(a.path().join("sub")).unwrap();
        fs::write(a.path().join("f"), b"hello world").unwrap();
        fs::write(a.path().join("sub/g"), b"nested").unwrap();
        let dst = b.path().join("copy");
        FaultFs::clone_dir(a.path(), &dst).unwrap();
        assert_eq!(fs::read(dst.join("f")).unwrap(), b"hello world");
        assert_eq!(fs::read(dst.join("sub/g")).unwrap(), b"nested");

        FaultFs::truncate(&dst.join("f"), 5).unwrap();
        assert_eq!(fs::read(dst.join("f")).unwrap(), b"hello");
        assert_eq!(FaultFs::file_len(&dst.join("f")).unwrap(), 5);
        // The source is untouched.
        assert_eq!(fs::read(a.path().join("f")).unwrap(), b"hello world");

        FaultFs::flip_byte(&dst.join("f"), 1).unwrap();
        assert_eq!(fs::read(dst.join("f")).unwrap(), b"hdllo");
    }

    #[test]
    fn faultvfs_injects_at_the_chosen_call() {
        let dir = TempDir::new("faultvfs");
        let f = dir.path().join("f");
        let vfs = FaultVfs::with_fault(FaultPlan {
            at: 1,
            kind: FaultKind::Transient,
            mode: FaultMode::Error,
        });
        vfs.write(&f, b"ok").unwrap(); // call 0
        let e = vfs.read(&f).unwrap_err(); // call 1: injected
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert_eq!(vfs.read(&f).unwrap(), b"ok"); // call 2: transient cleared
        assert_eq!(vfs.injected(), 1);
    }

    #[test]
    fn faultvfs_permanent_faults_stick() {
        let dir = TempDir::new("faultvfs-perm");
        let f = dir.path().join("f");
        let vfs = FaultVfs::with_fault(FaultPlan {
            at: 1,
            kind: FaultKind::Permanent,
            mode: FaultMode::Error,
        });
        vfs.write(&f, b"ok").unwrap();
        assert!(vfs.read(&f).is_err());
        assert!(vfs.read(&f).is_err(), "permanent faults persist");
        assert_eq!(
            vfs.read(&f).unwrap_err().kind(),
            io::ErrorKind::Other,
            "permanent faults are not retriable"
        );
    }

    #[test]
    fn faultvfs_short_write_persists_a_prefix() {
        let dir = TempDir::new("faultvfs-short");
        let f = dir.path().join("f");
        let vfs = FaultVfs::with_fault(FaultPlan {
            at: 0,
            kind: FaultKind::Transient,
            mode: FaultMode::ShortWrite,
        });
        assert!(vfs.append(&f, b"abcdef").is_err());
        assert_eq!(fs::read(&f).unwrap(), b"abc", "half the data landed");
    }

    #[test]
    fn faultvfs_traces_call_kinds() {
        let dir = TempDir::new("faultvfs-trace");
        let f = dir.path().join("f");
        let vfs = FaultVfs::tracing();
        vfs.write(&f, b"x").unwrap();
        vfs.sync(&f).unwrap();
        let _ = vfs.read(&f).unwrap();
        assert_eq!(vfs.trace(), vec![OpKind::Write, OpKind::Sync, OpKind::Read]);
    }
}
