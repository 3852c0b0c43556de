//! Where snapshot bytes live between the save and the (possibly much later)
//! resume.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::CkptError;

/// A store for epoch-indexed snapshots.
///
/// The resumable runner saves through this trait and, on restart, walks
/// [`CheckpointSink::epochs`] from newest to oldest looking for the latest
/// snapshot that still validates. Implementations keep whole byte blobs;
/// integrity is the format's job, not the sink's — but *availability* is
/// the sink's job, so storage failures surface as [`CkptError::Io`] instead
/// of being swallowed. What a failed save or load means (retry, fall back
/// to an older snapshot, give up) is the caller's policy decision.
pub trait CheckpointSink {
    /// Stores the snapshot taken at the end of `epoch`, replacing any
    /// previous bytes for that epoch. A returned error means the bytes are
    /// *not* durably stored (any previous snapshot for that epoch is left
    /// untouched where the backend permits).
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError>;

    /// Epochs with a stored snapshot, ascending.
    fn epochs(&self) -> Vec<usize>;

    /// Loads the snapshot for `epoch`. `Ok(None)` means no snapshot is
    /// stored for that epoch; `Err` means one may exist but could not be
    /// read back.
    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError>;

    /// Drops the snapshot for `epoch`, if present (best effort).
    fn remove(&mut self, epoch: usize);
}

/// Walks `sink` from the newest snapshot to the oldest and returns the
/// first one `restore` accepts, with its epoch. Unreadable (I/O error),
/// corrupt, and mismatched snapshots are skipped in favor of the next
/// older — that fallback *is* the recovery policy at this layer; callers
/// that need to tell a clean miss from storage trouble inspect the sink
/// themselves. `skip_newest` passes over the newest stored epoch unread,
/// as if its load had failed.
pub fn latest_valid<T>(
    sink: &dyn CheckpointSink,
    skip_newest: bool,
    mut restore: impl FnMut(&[u8]) -> Result<T, CkptError>,
) -> Option<(usize, T)> {
    for &epoch in sink.epochs().iter().rev().skip(usize::from(skip_newest)) {
        let Ok(Some(bytes)) = sink.load(epoch) else {
            continue;
        };
        if let Ok(restored) = restore(&bytes) {
            return Some((epoch, restored));
        }
    }
    None
}

/// A mutable borrow of a sink is itself a sink, so drivers can be written
/// generically over sink *ownership*: a one-shot runner borrows the
/// caller's sink, a long-lived served session owns its own.
impl<T: CheckpointSink + ?Sized> CheckpointSink for &mut T {
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError> {
        (**self).save(epoch, bytes)
    }

    fn epochs(&self) -> Vec<usize> {
        (**self).epochs()
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        (**self).load(epoch)
    }

    fn remove(&mut self, epoch: usize) {
        (**self).remove(epoch);
    }
}

/// A boxed sink is itself a sink, so a server can pick each session's
/// storage backend at runtime (in-memory, on-disk, chaos-wrapped) behind
/// one `Box<dyn CheckpointSink>` without re-monomorphizing the session.
impl<T: CheckpointSink + ?Sized> CheckpointSink for Box<T> {
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError> {
        (**self).save(epoch, bytes)
    }

    fn epochs(&self) -> Vec<usize> {
        (**self).epochs()
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        (**self).load(epoch)
    }

    fn remove(&mut self, epoch: usize) {
        (**self).remove(epoch);
    }
}

/// An in-memory sink for tests and fault-injection harnesses.
///
/// Doubles as the corruption bench: tests can grab the stored bytes with
/// [`MemorySink::bytes_mut`] and flip bits in place.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    snapshots: BTreeMap<usize, Vec<u8>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Mutable access to the stored bytes for `epoch` (for corruption
    /// tests).
    pub fn bytes_mut(&mut self, epoch: usize) -> Option<&mut Vec<u8>> {
        self.snapshots.get_mut(&epoch)
    }
}

impl CheckpointSink for MemorySink {
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError> {
        self.snapshots.insert(epoch, bytes.to_vec());
        Ok(())
    }

    fn epochs(&self) -> Vec<usize> {
        self.snapshots.keys().copied().collect()
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        Ok(self.snapshots.get(&epoch).cloned())
    }

    fn remove(&mut self, epoch: usize) {
        self.snapshots.remove(&epoch);
    }
}

/// A sink writing one `{prefix}-e{epoch:06}.aickpt` file per epoch under a
/// directory — the store real interrupted runs resume from.
///
/// Saves go through a `.tmp` sibling and a rename, so a crash mid-write
/// leaves either the old complete file or a `.tmp` the sink ignores, never
/// a half-written snapshot under the final name. (Even without the rename
/// the format would catch the truncation — this just keeps the newest
/// *valid* snapshot newer.) Every step of that path — create, write, sync,
/// rename — reports failure as [`CkptError::Io`] so the caller knows the
/// checkpoint does not exist, rather than discovering a silent gap at
/// resume time.
#[derive(Debug, Clone)]
pub struct DirSink {
    dir: PathBuf,
    prefix: String,
}

impl DirSink {
    /// A sink over `dir` (created if absent) with the given filename
    /// prefix, typically the benchmark code.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DirSink {
            dir,
            prefix: prefix.into(),
        })
    }

    /// A sink over `dir` namespaced to one *served session*: files are
    /// named `{prefix}-s{session_id:06}-e{epoch:06}.aickpt`.
    ///
    /// Two tenants checkpointing the same benchmark code into the same
    /// directory would otherwise clobber each other's snapshots (same
    /// prefix, same epochs). The session infix keeps the stores disjoint
    /// in both directions: this sink never lists a plain `{prefix}` file,
    /// and a plain [`DirSink::new`] sink never lists a session file —
    /// `-s000001-e000003` does not parse as an epoch suffix.
    pub fn for_session(
        dir: impl Into<PathBuf>,
        prefix: impl Into<String>,
        session_id: u64,
    ) -> std::io::Result<Self> {
        DirSink::new(dir, format!("{}-s{session_id:06}", prefix.into()))
    }

    /// The file path used for `epoch`.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("{}-e{epoch:06}.aickpt", self.prefix))
    }

    fn epoch_of(&self, file_name: &str) -> Option<usize> {
        let rest = file_name.strip_prefix(&self.prefix)?.strip_prefix("-e")?;
        rest.strip_suffix(".aickpt")?.parse().ok()
    }

    fn io_err(op: &str, path: &Path, e: std::io::Error) -> CkptError {
        CkptError::Io {
            op: format!("{op} {}", path.display()),
            what: e.to_string(),
        }
    }
}

impl CheckpointSink for DirSink {
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError> {
        // The directory may not exist yet (fresh path, or removed since the
        // sink was built); (re)create it so the first save of a run never
        // depends on who created the sink.
        fs::create_dir_all(&self.dir).map_err(|e| Self::io_err("save", &self.dir, e))?;
        let path = self.path_for(epoch);
        let tmp = path.with_extension("aickpt.tmp");
        let write = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(bytes).and(f.sync_all()))
            .map_err(|e| Self::io_err("save", &tmp, e));
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, &path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            Self::io_err("save", &path, e)
        })
    }

    fn epochs(&self) -> Vec<usize> {
        let mut out: Vec<usize> = match fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| self.epoch_of(&e.file_name().to_string_lossy()))
                .collect(),
            Err(_) => Vec::new(),
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        let path = self.path_for(epoch);
        match fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Self::io_err("load", &path, e)),
        }
    }

    fn remove(&mut self, epoch: usize) {
        let _ = fs::remove_file(self.path_for(epoch));
    }
}

/// A wrapper sink that fails on schedule — the I/O-fault test double.
///
/// Failures are keyed by epoch and operation: a scheduled save fails
/// *before* touching the inner sink (the snapshot is lost, as a full disk
/// would lose it), and a scheduled load fails even though the inner sink
/// still lists the epoch (as an unreadable sector would). Each scheduled
/// failure fires every time until the test itself disarms it with
/// [`FailingSink::clear`]; the supervised runner treats both shapes as
/// [`CkptError::Io`] faults.
#[derive(Debug, Clone, Default)]
pub struct FailingSink<S> {
    inner: S,
    fail_saves: BTreeSet<usize>,
    fail_loads: BTreeSet<usize>,
    /// Count of injected save failures actually hit.
    pub saves_failed: usize,
    /// Count of injected load failures actually hit.
    pub loads_failed: usize,
}

impl<S: CheckpointSink> FailingSink<S> {
    /// Wraps `inner` with an empty failure schedule.
    pub fn new(inner: S) -> Self {
        FailingSink {
            inner,
            fail_saves: BTreeSet::new(),
            fail_loads: BTreeSet::new(),
            saves_failed: 0,
            loads_failed: 0,
        }
    }

    /// Schedules every save for `epoch` to fail.
    pub fn fail_save_at(mut self, epoch: usize) -> Self {
        self.fail_saves.insert(epoch);
        self
    }

    /// Schedules every load for `epoch` to fail.
    pub fn fail_load_at(mut self, epoch: usize) -> Self {
        self.fail_loads.insert(epoch);
        self
    }

    /// Clears the failure schedule (the wrapped sink becomes transparent).
    pub fn clear(&mut self) {
        self.fail_saves.clear();
        self.fail_loads.clear();
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped sink (e.g. for corruption tests).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: CheckpointSink> CheckpointSink for FailingSink<S> {
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError> {
        if self.fail_saves.contains(&epoch) {
            self.saves_failed += 1;
            return Err(CkptError::Io {
                op: format!("save epoch {epoch}"),
                what: "injected save failure (FailingSink)".to_string(),
            });
        }
        self.inner.save(epoch, bytes)
    }

    fn epochs(&self) -> Vec<usize> {
        self.inner.epochs()
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        if self.fail_loads.contains(&epoch) {
            return Err(CkptError::Io {
                op: format!("load epoch {epoch}"),
                what: "injected load failure (FailingSink)".to_string(),
            });
        }
        self.inner.load(epoch)
    }

    fn remove(&mut self, epoch: usize) {
        self.inner.remove(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_round_trips_and_orders_epochs() {
        let mut sink = MemorySink::new();
        sink.save(10, b"ten").unwrap();
        sink.save(5, b"five").unwrap();
        sink.save(10, b"ten-again").unwrap();
        assert_eq!(sink.epochs(), vec![5, 10]);
        assert_eq!(sink.load(10).unwrap().unwrap(), b"ten-again");
        assert_eq!(sink.load(5).unwrap().unwrap(), b"five");
        assert!(sink.load(7).unwrap().is_none());
        sink.remove(5);
        assert_eq!(sink.epochs(), vec![10]);
    }

    #[test]
    fn latest_valid_falls_back_past_unreadable_rejected_and_skipped_snapshots() {
        let mut inner = MemorySink::new();
        for epoch in 1..=4 {
            inner.save(epoch, &[epoch as u8]).unwrap();
        }
        let sink = FailingSink::new(inner).fail_load_at(4);
        let accept_odd = |bytes: &[u8]| match bytes[0] % 2 {
            1 => Ok(bytes[0]),
            _ => Err(CkptError::MetaMismatch {
                what: "even".to_string(),
            }),
        };
        // 4 cannot be loaded, so 3 is the newest that validates; skipping
        // the newest stored epoch (4) changes nothing here.
        assert_eq!(latest_valid(&sink, false, accept_odd), Some((3, 3)));
        assert_eq!(latest_valid(&sink, true, accept_odd), Some((3, 3)));
        let mut sink = sink;
        sink.remove(4);
        // Now 3 is the newest and skipping it falls back to 1.
        assert_eq!(latest_valid(&sink, true, accept_odd), Some((1, 1)));
        sink.remove(1);
        assert_eq!(latest_valid(&sink, true, accept_odd), None);
    }

    #[test]
    fn dir_sink_round_trips_and_filters_foreign_files() {
        let dir = std::env::temp_dir().join(format!("aibench-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut sink = DirSink::new(&dir, "DC-AI-C1").unwrap();
        sink.save(3, b"abc").unwrap();
        sink.save(12, b"def").unwrap();
        // Foreign files in the same directory must be ignored.
        fs::write(dir.join("notes.txt"), b"x").unwrap();
        fs::write(dir.join("DC-AI-C2-e000001.aickpt"), b"other-run").unwrap();
        assert_eq!(sink.epochs(), vec![3, 12]);
        assert_eq!(sink.load(3).unwrap().unwrap(), b"abc");
        assert_eq!(sink.load(12).unwrap().unwrap(), b"def");
        sink.remove(3);
        assert_eq!(sink.epochs(), vec![12]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_sinks_with_the_same_code_never_clobber_each_other() {
        // Regression for the multi-tenant collision: two sessions
        // checkpointing the same benchmark code into the same directory
        // used to race for the same `{code}-e{epoch}` paths.
        let dir = std::env::temp_dir().join(format!("aibench-ckpt-sess-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut a = DirSink::for_session(&dir, "DC-AI-C1", 1).unwrap();
        let mut b = DirSink::for_session(&dir, "DC-AI-C1", 2).unwrap();
        a.save(3, b"tenant-a").unwrap();
        b.save(3, b"tenant-b").unwrap();
        assert_eq!(a.load(3).unwrap().unwrap(), b"tenant-a");
        assert_eq!(b.load(3).unwrap().unwrap(), b"tenant-b");
        assert_eq!(a.epochs(), vec![3]);
        assert_eq!(b.epochs(), vec![3]);
        // A plain sink for the same code sees neither session's files, and
        // the sessions see neither the plain sink's nor each other's.
        let mut plain = DirSink::new(&dir, "DC-AI-C1").unwrap();
        assert!(plain.epochs().is_empty());
        plain.save(3, b"plain").unwrap();
        assert_eq!(a.load(3).unwrap().unwrap(), b"tenant-a");
        assert_eq!(plain.load(3).unwrap().unwrap(), b"plain");
        a.remove(3);
        assert_eq!(b.epochs(), vec![3]);
        assert_eq!(plain.epochs(), vec![3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn borrowed_sink_is_a_sink() {
        let mut inner = MemorySink::new();
        {
            let mut borrowed: &mut MemorySink = &mut inner;
            CheckpointSink::save(&mut borrowed, 1, b"one").unwrap();
            assert_eq!(CheckpointSink::epochs(&borrowed), vec![1]);
            assert_eq!(CheckpointSink::load(&borrowed, 1).unwrap().unwrap(), b"one");
            CheckpointSink::remove(&mut borrowed, 1);
        }
        assert!(inner.epochs().is_empty());
    }

    #[test]
    fn boxed_sink_is_a_sink() {
        let mut boxed: Box<dyn CheckpointSink> = Box::new(MemorySink::new());
        boxed.save(2, b"two").unwrap();
        assert_eq!(boxed.epochs(), vec![2]);
        assert_eq!(boxed.load(2).unwrap().unwrap(), b"two");
        boxed.remove(2);
        assert!(boxed.epochs().is_empty());
    }

    #[test]
    fn dir_sink_surfaces_save_errors() {
        // Saving into a "directory" whose path is occupied by a regular
        // file must report Io, not silently drop the snapshot.
        let dir = std::env::temp_dir().join(format!("aibench-ckpt-blocked-{}", std::process::id()));
        let mut sink = DirSink::new(&dir, "X").unwrap();
        fs::remove_dir_all(&dir).unwrap();
        fs::write(&dir, b"not a directory").unwrap();
        match sink.save(1, b"bytes") {
            Err(CkptError::Io { op, .. }) => assert!(op.starts_with("save")),
            other => panic!("expected Io error, got {other:?}"),
        }
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn dir_sink_recreates_a_removed_directory_on_save() {
        // Regression: the first save of a run must succeed even when the
        // sink's directory vanished after construction (or the sink was
        // deserialized pointing at a fresh path) — save (re)creates it.
        let dir = std::env::temp_dir().join(format!("aibench-ckpt-fresh-{}", std::process::id()));
        let mut sink = DirSink::new(&dir, "X").unwrap();
        fs::remove_dir_all(&dir).unwrap();
        sink.save(1, b"bytes").unwrap();
        assert_eq!(sink.epochs(), vec![1]);
        assert_eq!(sink.load(1).unwrap().unwrap(), b"bytes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_sink_fails_on_schedule_and_counts() {
        let mut sink = FailingSink::new(MemorySink::new())
            .fail_save_at(2)
            .fail_load_at(3);
        sink.save(1, b"one").unwrap();
        assert!(matches!(sink.save(2, b"two"), Err(CkptError::Io { .. })));
        sink.save(3, b"three").unwrap();
        assert_eq!(sink.saves_failed, 1);
        // Epoch 2 never reached the inner sink.
        assert_eq!(sink.epochs(), vec![1, 3]);
        assert!(matches!(sink.load(3), Err(CkptError::Io { .. })));
        assert_eq!(sink.load(1).unwrap().unwrap(), b"one");
        sink.clear();
        assert_eq!(sink.load(3).unwrap().unwrap(), b"three");
    }
}
