//! In-memory filesystem substrate with a durability model.
//!
//! Every operation announces the corresponding libc call to the
//! [`LibcEnv`]; when the active fault plan targets that call, the operation
//! fails with the injected errno exactly as a real LFI-intercepted call
//! would. Targets therefore exercise genuine error-propagation paths while
//! the underlying state stays deterministic and in-process.
//!
//! The filesystem keeps **two namespaces**: the *visible* one (what reads
//! observe — the page cache) and the *durable* one (what survives a
//! [`Vfs::crash`] — the disk). Data writes touch only the visible copy;
//! `fsync` flushes a file's visible bytes to the durable copy; metadata
//! operations (create, unlink, rename, mkdir) are journaled and durable
//! immediately, like a journaling filesystem's namespace updates. A crash
//! discards everything not made durable.
//!
//! On top of plan-driven errno injection, a rule-driven
//! [`FaultLayer`](crate::vfs_fault::FaultLayer) can be armed on the VFS:
//! rules keyed by (op × path match × timing) inject errors, short writes,
//! dropped fsyncs and torn renames, and every operation performed while
//! armed is recorded to a replay log.

use crate::vfs_fault::{Decision, FaultLayer, FaultRule, LogEntry, VfsOp};
use afex_inject::{AtomicFault, CallResult, Errno, Func, LibcEnv};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Errors surfaced by VFS operations.
///
/// [`VfsError::Injected`] carries faults coming from the injection plan or
/// a fired fault rule; [`VfsError::Logic`] marks genuine misuse (e.g.
/// reading a handle that was never opened), which indicates a bug in the
/// *target*, not a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// The operation failed because a fault was injected.
    Injected(Errno),
    /// The operation failed for a real (semantic) reason.
    Logic(Errno),
}

impl VfsError {
    /// The errno of the failure, whatever its origin.
    pub fn errno(&self) -> Errno {
        match self {
            VfsError::Injected(e) | VfsError::Logic(e) => *e,
        }
    }
}

impl std::fmt::Display for VfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfsError::Injected(e) => write!(f, "injected {e}"),
            VfsError::Logic(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// Result type of VFS operations.
pub type VfsResult<T> = Result<T, VfsError>;

#[derive(Debug)]
struct OpenFile {
    path: String,
    offset: usize,
    writable: bool,
    /// `O_APPEND`: every write lands at end-of-file regardless of offset.
    append: bool,
}

/// An in-memory filesystem with libc-call announcement, a visible/durable
/// split, and an optional rule-driven fault layer.
///
/// Paths are flat strings with `/` separators; directories must exist
/// before files can be created in them (the root `/` always exists).
///
/// # Examples
///
/// ```
/// use afex_inject::LibcEnv;
/// use afex_targets::Vfs;
///
/// let env = LibcEnv::fault_free();
/// let vfs = Vfs::new();
/// let fd = vfs.create(&env, "/data.txt").unwrap();
/// vfs.write(&env, fd, b"hello").unwrap();
/// vfs.fsync(&env, fd).unwrap();
/// vfs.close(&env, fd).unwrap();
/// vfs.crash(); // Only fsynced bytes survive.
/// assert_eq!(vfs.read_all(&env, "/data.txt").unwrap(), b"hello");
/// ```
#[derive(Debug, Default)]
pub struct Vfs {
    state: RefCell<State>,
    fault: RefCell<FaultLayer>,
}

#[derive(Debug, Default)]
struct State {
    /// Visible namespace: what reads observe (the page cache).
    files: BTreeMap<String, Vec<u8>>,
    /// Durable namespace: what survives a crash (the disk).
    disk: BTreeMap<String, Vec<u8>>,
    /// Directories are journaled metadata: durable as soon as created.
    dirs: BTreeMap<String, ()>,
    handles: BTreeMap<u64, OpenFile>,
    next_fd: u64,
    cwd: String,
}

impl State {
    /// Opens a new descriptor on `path` at offset 0.
    fn open_handle(&mut self, path: &str, writable: bool, append: bool) -> u64 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.handles.insert(
            fd,
            OpenFile {
                path: path.to_owned(),
                offset: 0,
                writable,
                append,
            },
        );
        fd
    }
}

/// Empties `path` in one namespace, creating it if missing.
fn truncate(namespace: &mut BTreeMap<String, Vec<u8>>, path: &str) {
    match namespace.get_mut(path) {
        Some(bytes) => bytes.clear(),
        None => {
            namespace.insert(path.to_owned(), Vec::new());
        }
    }
}

impl Vfs {
    /// Creates an empty filesystem with only the root directory.
    pub fn new() -> Self {
        let vfs = Vfs::default();
        {
            let mut s = vfs.state.borrow_mut();
            s.dirs.insert("/".to_owned(), ());
            s.cwd = "/".to_owned();
            s.next_fd = 3; // 0-2 are the standard descriptors.
        }
        vfs
    }

    /// Pre-populates a file without announcing libc calls (test setup).
    /// Seeded files are durable: they were on disk before the run.
    pub fn seed_file(&self, path: &str, contents: &[u8]) {
        let mut s = self.state.borrow_mut();
        s.files.insert(path.to_owned(), contents.to_vec());
        s.disk.insert(path.to_owned(), contents.to_vec());
    }

    /// Pre-creates a directory without announcing libc calls (test setup).
    pub fn seed_dir(&self, path: &str) {
        self.state.borrow_mut().dirs.insert(path.to_owned(), ());
    }

    fn parent_of(path: &str) -> &str {
        match path.rfind('/') {
            Some(0) => "/",
            Some(i) => &path[..i],
            None => "/",
        }
    }

    /// Consults the fault layer for one operation, recording a fired rule
    /// as an injection (with the current stack trace) against the libc
    /// function the op announced.
    fn decide(&self, env: &LibcEnv, op: VfsOp, path: &str, requested: usize) -> Decision {
        let d = self.fault.borrow_mut().decide(op, path, requested);
        if d != Decision::Ok {
            let errno = match d {
                Decision::Error(e) => e,
                _ => Errno::EIO,
            };
            let func = op.func();
            env.record_injection(AtomicFault::new(func, env.call_count(func), errno));
        }
        d
    }

    // ---- Fault-layer control -------------------------------------------

    /// Arms the rule-driven fault layer, clearing any previous replay log.
    /// An empty rule set still enables replay logging.
    pub fn arm_rules(&self, rules: Vec<FaultRule>) {
        self.fault.borrow_mut().arm(rules);
    }

    /// Disarms the fault layer; the replay log is retained for inspection.
    pub fn clear_rules(&self) {
        self.fault.borrow_mut().disarm();
    }

    /// The replay log collected since the last arming.
    pub fn replay_log(&self) -> Vec<LogEntry> {
        self.fault.borrow().log()
    }

    /// How many operations the replay log holds: a mark for
    /// [`Vfs::fsynced_since`].
    pub(crate) fn log_len(&self) -> usize {
        self.fault.borrow().len()
    }

    /// Whether the replay log holds, from entry `mark` on, an fsync of a
    /// path containing `marker` that really flushed (no fault fired).
    pub(crate) fn fsynced_since(&self, mark: usize, marker: &str) -> bool {
        self.fault.borrow().fsynced_since(mark, marker)
    }

    /// The replay log rendered one canonical line per entry.
    pub fn rendered_log(&self) -> String {
        self.fault.borrow().rendered()
    }

    // ---- Crash ----------------------------------------------------------

    /// Simulates a machine crash: the visible namespace is reset to the
    /// durable one, all handles vanish with the process, and descriptor
    /// numbering restarts. Armed rules survive (they model the
    /// environment, not the process); disarm explicitly for a fault-free
    /// recovery phase.
    pub fn crash(&self) {
        let mut s = self.state.borrow_mut();
        let State { files, disk, .. } = &mut *s;
        // Copy the disk over the page cache in place, reusing the names
        // and buffers both namespaces hold.
        files.retain(|path, _| disk.contains_key(path));
        for (path, durable) in disk.iter() {
            match files.get_mut(path) {
                Some(visible) => visible.clone_from(durable),
                None => {
                    files.insert(path.clone(), durable.clone());
                }
            }
        }
        s.handles.clear();
        s.next_fd = 3;
        s.cwd = "/".to_owned();
    }

    // ---- Operations -----------------------------------------------------

    /// Opens an existing file for reading (`open`).
    pub fn open(&self, env: &LibcEnv, path: &str) -> VfsResult<u64> {
        if let CallResult::Fail(e) = env.call(Func::Open) {
            return Err(VfsError::Injected(e));
        }
        if let Decision::Error(e) = self.decide(env, VfsOp::Open, path, 0) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        if !s.files.contains_key(path) {
            return Err(VfsError::Logic(Errno::ENOENT));
        }
        Ok(s.open_handle(path, false, false))
    }

    /// Opens an existing file for reading and in-place writing
    /// (`open(O_RDWR)`): no truncation, offset starts at 0.
    pub fn open_rw(&self, env: &LibcEnv, path: &str) -> VfsResult<u64> {
        if let CallResult::Fail(e) = env.call(Func::Open) {
            return Err(VfsError::Injected(e));
        }
        if let Decision::Error(e) = self.decide(env, VfsOp::Open, path, 0) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        if !s.files.contains_key(path) {
            return Err(VfsError::Logic(Errno::ENOENT));
        }
        Ok(s.open_handle(path, true, false))
    }

    /// Creates (or truncates) a file for writing (`open` with
    /// `O_CREAT|O_TRUNC`). Truncation is a journaled metadata operation:
    /// it applies to the durable namespace immediately, so a crash right
    /// after a truncating create finds the file empty — the old durable
    /// bytes are gone.
    pub fn create(&self, env: &LibcEnv, path: &str) -> VfsResult<u64> {
        if let CallResult::Fail(e) = env.call(Func::Open) {
            return Err(VfsError::Injected(e));
        }
        if let Decision::Error(e) = self.decide(env, VfsOp::Create, path, 0) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        if !s.dirs.contains_key(Self::parent_of(path)) {
            return Err(VfsError::Logic(Errno::ENOENT));
        }
        truncate(&mut s.files, path);
        truncate(&mut s.disk, path);
        Ok(s.open_handle(path, true, false))
    }

    /// Opens a file for appending, creating it if missing (`open` with
    /// `O_CREAT|O_APPEND`). Never truncates; every write lands at
    /// end-of-file.
    pub fn open_append(&self, env: &LibcEnv, path: &str) -> VfsResult<u64> {
        if let CallResult::Fail(e) = env.call(Func::Open) {
            return Err(VfsError::Injected(e));
        }
        if let Decision::Error(e) = self.decide(env, VfsOp::Append, path, 0) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        if !s.dirs.contains_key(Self::parent_of(path)) {
            return Err(VfsError::Logic(Errno::ENOENT));
        }
        if !s.files.contains_key(path) {
            // Creation is journaled metadata: the (empty) file is durable.
            s.files.insert(path.to_owned(), Vec::new());
            s.disk.insert(path.to_owned(), Vec::new());
        }
        Ok(s.open_handle(path, true, true))
    }

    /// Reads up to `len` bytes from an open handle (`read`).
    pub fn read(&self, env: &LibcEnv, fd: u64, len: usize) -> VfsResult<Vec<u8>> {
        if let CallResult::Fail(e) = env.call(Func::Read) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        let State { files, handles, .. } = &mut *s;
        let Some(h) = handles.get_mut(&fd) else {
            return Err(VfsError::Logic(Errno::EBADF));
        };
        if let Decision::Error(e) = self.decide(env, VfsOp::Read, &h.path, len) {
            return Err(VfsError::Injected(e));
        }
        let data = files.get(&h.path).map_or(&[][..], Vec::as_slice);
        let end = (h.offset + len).min(data.len());
        let chunk = data[h.offset.min(data.len())..end].to_vec();
        h.offset = end;
        Ok(chunk)
    }

    /// Writes bytes through an open handle (`write`), overwriting in
    /// place at the handle's offset (POSIX positional-write semantics) and
    /// extending the file as needed; append handles always write at
    /// end-of-file. Returns the number of bytes written, which a fired
    /// short-write rule makes *less than* `bytes.len()` — callers that
    /// ignore the count silently tear their data.
    ///
    /// Written bytes are dirty: they live in the visible namespace only
    /// until an `fsync` flushes them.
    pub fn write(&self, env: &LibcEnv, fd: u64, bytes: &[u8]) -> VfsResult<usize> {
        if let CallResult::Fail(e) = env.call(Func::Write) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        let State { files, handles, .. } = &mut *s;
        let Some(h) = handles.get_mut(&fd) else {
            return Err(VfsError::Logic(Errno::EBADF));
        };
        if !h.writable {
            return Err(VfsError::Logic(Errno::EBADF));
        }
        let n = match self.decide(env, VfsOp::Write, &h.path, bytes.len()) {
            Decision::Error(e) => return Err(VfsError::Injected(e)),
            Decision::Short => bytes.len() / 2,
            _ => bytes.len(),
        };
        if !files.contains_key(&h.path) {
            // The file was unlinked under the open handle: the write
            // brings it back into the visible namespace.
            files.insert(h.path.clone(), Vec::new());
        }
        let file = files.get_mut(&h.path).expect("inserted above");
        let off = if h.append {
            file.len()
        } else {
            h.offset.min(file.len())
        };
        if file.len() < off + n {
            file.resize(off + n, 0);
        }
        file[off..off + n].copy_from_slice(&bytes[..n]);
        h.offset = off + n;
        Ok(n)
    }

    /// Flushes an open handle to disk (`fsync`): the file's visible bytes
    /// become durable. A fired drop-fsync rule reports success while
    /// flushing nothing — the lying-disk scenario.
    pub fn fsync(&self, env: &LibcEnv, fd: u64) -> VfsResult<()> {
        if let CallResult::Fail(e) = env.call(Func::Fsync) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        let State {
            files,
            disk,
            handles,
            ..
        } = &mut *s;
        let Some(h) = handles.get(&fd) else {
            return Err(VfsError::Logic(Errno::EBADF));
        };
        let visible = files.get(&h.path);
        match self.decide(env, VfsOp::Fsync, &h.path, visible.map_or(0, Vec::len)) {
            Decision::Error(e) => Err(VfsError::Injected(e)),
            Decision::DroppedFsync => Ok(()),
            _ => {
                if let Some(data) = visible {
                    match disk.get_mut(&h.path) {
                        Some(durable) => durable.clone_from(data),
                        None => {
                            disk.insert(h.path.clone(), data.clone());
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Closes an open handle (`close`).
    pub fn close(&self, env: &LibcEnv, fd: u64) -> VfsResult<()> {
        if let CallResult::Fail(e) = env.call(Func::Close) {
            // Even on failure, the descriptor is gone (POSIX semantics).
            self.state.borrow_mut().handles.remove(&fd);
            return Err(VfsError::Injected(e));
        }
        // Failed or not, the close releases the descriptor.
        let Some(h) = self.state.borrow_mut().handles.remove(&fd) else {
            return Err(VfsError::Logic(Errno::EBADF));
        };
        if let Decision::Error(e) = self.decide(env, VfsOp::Close, &h.path, 0) {
            return Err(VfsError::Injected(e));
        }
        Ok(())
    }

    /// Stats a path (`stat`): returns the file size, or directory marker.
    pub fn stat(&self, env: &LibcEnv, path: &str) -> VfsResult<u64> {
        if let CallResult::Fail(e) = env.call(Func::Stat) {
            return Err(VfsError::Injected(e));
        }
        if let Decision::Error(e) = self.decide(env, VfsOp::Stat, path, 0) {
            return Err(VfsError::Injected(e));
        }
        let s = self.state.borrow();
        if let Some(f) = s.files.get(path) {
            Ok(f.len() as u64)
        } else if s.dirs.contains_key(path) {
            Ok(0)
        } else {
            Err(VfsError::Logic(Errno::ENOENT))
        }
    }

    /// Removes a file (`unlink`). Journaled metadata: durable immediately.
    pub fn unlink(&self, env: &LibcEnv, path: &str) -> VfsResult<()> {
        if let CallResult::Fail(e) = env.call(Func::Unlink) {
            return Err(VfsError::Injected(e));
        }
        if let Decision::Error(e) = self.decide(env, VfsOp::Unlink, path, 0) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        if s.files.remove(path).is_none() {
            return Err(VfsError::Logic(Errno::ENOENT));
        }
        s.disk.remove(path);
        Ok(())
    }

    /// Renames a file (`rename`). Journaled metadata: both namespaces
    /// move atomically — unless a torn-rename rule fires, in which case
    /// only the visible namespace moves and the durable one keeps the old
    /// name (a crash resurrects it).
    pub fn rename(&self, env: &LibcEnv, from: &str, to: &str) -> VfsResult<()> {
        if let CallResult::Fail(e) = env.call(Func::Rename) {
            return Err(VfsError::Injected(e));
        }
        let decision = self.decide(env, VfsOp::Rename, from, 0);
        if let Decision::Error(e) = decision {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        let Some(data) = s.files.remove(from) else {
            return Err(VfsError::Logic(Errno::ENOENT));
        };
        s.files.insert(to.to_owned(), data);
        if decision != Decision::Torn {
            if let Some(durable) = s.disk.remove(from) {
                s.disk.insert(to.to_owned(), durable);
            } else {
                // The source was never synced: the destination name now
                // denotes an un-flushed inode, so any old durable bytes
                // under that name are gone.
                s.disk.remove(to);
            }
        }
        Ok(())
    }

    /// Creates a directory (`mkdir`). Journaled metadata: durable
    /// immediately.
    pub fn mkdir(&self, env: &LibcEnv, path: &str) -> VfsResult<()> {
        if let CallResult::Fail(e) = env.call(Func::Mkdir) {
            return Err(VfsError::Injected(e));
        }
        if let Decision::Error(e) = self.decide(env, VfsOp::Mkdir, path, 0) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        if s.dirs.contains_key(path) {
            return Err(VfsError::Logic(Errno::EEXIST));
        }
        s.dirs.insert(path.to_owned(), ());
        Ok(())
    }

    /// Lists directory entries (`opendir` + `readdir` + `closedir`).
    pub fn list_dir(&self, env: &LibcEnv, path: &str) -> VfsResult<Vec<String>> {
        if let CallResult::Fail(e) = env.call(Func::Opendir) {
            return Err(VfsError::Injected(e));
        }
        let entries = {
            let s = self.state.borrow();
            if !s.dirs.contains_key(path) {
                return Err(VfsError::Logic(Errno::ENOTDIR));
            }
            let prefix = if path == "/" {
                "/".to_owned()
            } else {
                format!("{path}/")
            };
            let mut names: Vec<String> = s
                .files
                .keys()
                .chain(s.dirs.keys())
                .filter(|p| {
                    p.starts_with(&prefix)
                        && p.len() > prefix.len()
                        && !p[prefix.len()..].contains('/')
                })
                .map(|p| p[prefix.len()..].to_owned())
                .collect();
            names.sort();
            names.dedup();
            names
        };
        // One `readdir` per entry, like a real traversal.
        for _ in &entries {
            if let CallResult::Fail(e) = env.call(Func::Readdir) {
                let _ = env.call(Func::Closedir);
                return Err(VfsError::Injected(e));
            }
        }
        if let CallResult::Fail(e) = env.call(Func::Closedir) {
            return Err(VfsError::Injected(e));
        }
        Ok(entries)
    }

    /// Changes the working directory (`chdir`).
    pub fn chdir(&self, env: &LibcEnv, path: &str) -> VfsResult<()> {
        if let CallResult::Fail(e) = env.call(Func::Chdir) {
            return Err(VfsError::Injected(e));
        }
        let mut s = self.state.borrow_mut();
        if !s.dirs.contains_key(path) {
            return Err(VfsError::Logic(Errno::ENOENT));
        }
        s.cwd = path.to_owned();
        Ok(())
    }

    /// Returns the working directory (`getcwd`).
    pub fn getcwd(&self, env: &LibcEnv) -> VfsResult<String> {
        if let CallResult::Fail(e) = env.call(Func::Getcwd) {
            return Err(VfsError::Injected(e));
        }
        Ok(self.state.borrow().cwd.clone())
    }

    /// Convenience: reads a whole file via open/read/close.
    pub fn read_all(&self, env: &LibcEnv, path: &str) -> VfsResult<Vec<u8>> {
        let fd = self.open(env, path)?;
        let mut out = Vec::new();
        loop {
            let chunk = match self.read(env, fd, 4096) {
                Ok(c) => c,
                Err(e) => {
                    let _ = self.close(env, fd);
                    return Err(e);
                }
            };
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        self.close(env, fd)?;
        Ok(out)
    }

    /// Convenience: writes a whole file via create/write/close.
    pub fn write_all(&self, env: &LibcEnv, path: &str, bytes: &[u8]) -> VfsResult<()> {
        let fd = self.create(env, path)?;
        if let Err(e) = self.write(env, fd, bytes) {
            let _ = self.close(env, fd);
            return Err(e);
        }
        self.close(env, fd)
    }

    /// Whether a file exists (no libc call — inspection for assertions).
    pub fn file_exists(&self, path: &str) -> bool {
        self.state.borrow().files.contains_key(path)
    }

    /// File contents (no libc call — inspection for assertions).
    pub fn contents(&self, path: &str) -> Option<Vec<u8>> {
        self.state.borrow().files.get(path).cloned()
    }

    /// Whether a file exists in the durable namespace (no libc call).
    pub fn durable_file_exists(&self, path: &str) -> bool {
        self.state.borrow().disk.contains_key(path)
    }

    /// Durable file contents — what a crash would preserve (no libc call).
    pub fn durable_contents(&self, path: &str) -> Option<Vec<u8>> {
        self.state.borrow().disk.get(path).cloned()
    }

    /// Whether a directory exists (no libc call).
    pub fn dir_exists(&self, path: &str) -> bool {
        self.state.borrow().dirs.contains_key(path)
    }

    /// Number of open handles (leak detection in tests).
    pub fn open_handles(&self) -> usize {
        self.state.borrow().handles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs_fault::{FaultKind, PathMatch};
    use afex_inject::FaultPlan;

    fn rule(op: VfsOp, nth: u32, kind: FaultKind) -> FaultRule {
        FaultRule {
            op,
            path: PathMatch::Any,
            nth,
            kind,
        }
    }

    #[test]
    fn create_write_read_roundtrip() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.write_all(&env, "/a.txt", b"abc").unwrap();
        assert_eq!(vfs.read_all(&env, "/a.txt").unwrap(), b"abc");
        assert_eq!(vfs.open_handles(), 0);
    }

    #[test]
    fn open_missing_file_is_enoent() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        assert_eq!(
            vfs.open(&env, "/nope").unwrap_err(),
            VfsError::Logic(Errno::ENOENT)
        );
    }

    #[test]
    fn create_requires_parent_dir() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        assert!(vfs.create(&env, "/no/such/file").is_err());
        vfs.seed_dir("/no");
        vfs.seed_dir("/no/such");
        assert!(vfs.create(&env, "/no/such/file").is_ok());
    }

    #[test]
    fn injected_open_failure() {
        let env = LibcEnv::new(FaultPlan::single(Func::Open, 1, Errno::EMFILE));
        let vfs = Vfs::new();
        vfs.seed_file("/x", b"1");
        assert_eq!(
            vfs.open(&env, "/x").unwrap_err(),
            VfsError::Injected(Errno::EMFILE)
        );
        // The second open succeeds: only call #1 was targeted.
        assert!(vfs.open(&env, "/x").is_ok());
    }

    #[test]
    fn injected_read_mid_stream() {
        // read_all does open(1) then reads; fail the second read call.
        let env = LibcEnv::new(FaultPlan::single(Func::Read, 2, Errno::EIO));
        let vfs = Vfs::new();
        vfs.seed_file("/big", &vec![7u8; 5000]);
        assert_eq!(
            vfs.read_all(&env, "/big").unwrap_err(),
            VfsError::Injected(Errno::EIO)
        );
        // The handle was closed by the error path.
        assert_eq!(vfs.open_handles(), 0);
    }

    #[test]
    fn close_failure_still_releases_fd() {
        let env = LibcEnv::new(FaultPlan::single(Func::Close, 1, Errno::EINTR));
        let vfs = Vfs::new();
        vfs.seed_file("/x", b"1");
        let fd = vfs.open(&env, "/x").unwrap();
        assert!(vfs.close(&env, fd).is_err());
        assert_eq!(vfs.open_handles(), 0);
    }

    #[test]
    fn rename_and_unlink() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/a", b"data");
        vfs.rename(&env, "/a", "/b").unwrap();
        assert!(!vfs.file_exists("/a"));
        assert_eq!(vfs.contents("/b").unwrap(), b"data");
        vfs.unlink(&env, "/b").unwrap();
        assert!(!vfs.file_exists("/b"));
        assert!(vfs.unlink(&env, "/b").is_err());
    }

    #[test]
    fn list_dir_counts_readdir_calls() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_dir("/d");
        vfs.seed_file("/d/a", b"");
        vfs.seed_file("/d/b", b"");
        vfs.seed_dir("/d/sub");
        vfs.seed_file("/d/sub/deep", b""); // Not a direct child.
        let entries = vfs.list_dir(&env, "/d").unwrap();
        assert_eq!(entries, vec!["a", "b", "sub"]);
        assert_eq!(env.call_count(Func::Readdir), 3);
        assert_eq!(env.call_count(Func::Opendir), 1);
        assert_eq!(env.call_count(Func::Closedir), 1);
    }

    #[test]
    fn list_root_dir() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/top", b"");
        vfs.seed_dir("/d");
        assert_eq!(vfs.list_dir(&env, "/").unwrap(), vec!["d", "top"]);
    }

    #[test]
    fn readdir_failure_closes_dir() {
        let env = LibcEnv::new(FaultPlan::single(Func::Readdir, 1, Errno::EBADF));
        let vfs = Vfs::new();
        vfs.seed_dir("/d");
        vfs.seed_file("/d/a", b"");
        assert!(vfs.list_dir(&env, "/d").is_err());
        assert_eq!(env.call_count(Func::Closedir), 1);
    }

    #[test]
    fn chdir_and_getcwd() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_dir("/home");
        vfs.chdir(&env, "/home").unwrap();
        assert_eq!(vfs.getcwd(&env).unwrap(), "/home");
        assert!(vfs.chdir(&env, "/missing").is_err());
    }

    #[test]
    fn stat_files_and_dirs() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/f", b"12345");
        vfs.seed_dir("/d");
        assert_eq!(vfs.stat(&env, "/f").unwrap(), 5);
        assert_eq!(vfs.stat(&env, "/d").unwrap(), 0);
        assert!(vfs.stat(&env, "/x").is_err());
    }

    #[test]
    fn mkdir_semantics() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.mkdir(&env, "/new").unwrap();
        assert!(vfs.dir_exists("/new"));
        assert_eq!(
            vfs.mkdir(&env, "/new").unwrap_err(),
            VfsError::Logic(Errno::EEXIST)
        );
    }

    #[test]
    fn create_truncates_existing_file() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.write_all(&env, "/f", b"hello world").unwrap();
        let fd2 = vfs.create(&env, "/f").unwrap(); // Truncating create.
        vfs.write(&env, fd2, b"bye").unwrap();
        vfs.close(&env, fd2).unwrap();
        assert_eq!(vfs.contents("/f").unwrap(), b"bye");
    }

    #[test]
    fn write_at_interior_offset_overwrites_in_place() {
        // POSIX positional writes overwrite; they do not truncate the tail.
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/f", b"hello world");
        let fd = vfs.open_rw(&env, "/f").unwrap();
        vfs.write(&env, fd, b"HELLO").unwrap();
        vfs.close(&env, fd).unwrap();
        assert_eq!(vfs.contents("/f").unwrap(), b"HELLO world");
    }

    #[test]
    fn append_handle_writes_at_end_of_file() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/log", b"one\n");
        let fd = vfs.open_append(&env, "/log").unwrap();
        vfs.write(&env, fd, b"two\n").unwrap();
        vfs.close(&env, fd).unwrap();
        assert_eq!(vfs.contents("/log").unwrap(), b"one\ntwo\n");
        // A second append handle still lands at the (new) end.
        let fd2 = vfs.open_append(&env, "/log").unwrap();
        vfs.write(&env, fd2, b"three\n").unwrap();
        vfs.close(&env, fd2).unwrap();
        assert_eq!(vfs.contents("/log").unwrap(), b"one\ntwo\nthree\n");
    }

    #[test]
    fn open_append_creates_missing_file() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        let fd = vfs.open_append(&env, "/new.log").unwrap();
        vfs.write(&env, fd, b"x").unwrap();
        vfs.close(&env, fd).unwrap();
        assert_eq!(vfs.contents("/new.log").unwrap(), b"x");
    }

    #[test]
    fn read_from_write_only_state() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/f", b"abc");
        let fd = vfs.open(&env, "/f").unwrap();
        assert!(vfs.write(&env, fd, b"x").is_err());
        vfs.close(&env, fd).unwrap();
    }

    #[test]
    fn injected_errno_is_preserved() {
        let env = LibcEnv::new(FaultPlan::single(Func::Write, 1, Errno::ENOSPC));
        let vfs = Vfs::new();
        let fd = vfs.create(&env, "/f").unwrap();
        assert_eq!(
            vfs.write(&env, fd, b"x").unwrap_err().errno(),
            Errno::ENOSPC
        );
    }

    // ---- Durability model ----------------------------------------------

    #[test]
    fn unsynced_write_is_lost_on_crash() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        let fd = vfs.create(&env, "/f").unwrap();
        vfs.write(&env, fd, b"dirty").unwrap();
        vfs.close(&env, fd).unwrap();
        assert_eq!(vfs.contents("/f").unwrap(), b"dirty"); // Visible...
        assert_eq!(vfs.durable_contents("/f").unwrap(), b""); // ...not durable.
        vfs.crash();
        assert_eq!(vfs.contents("/f").unwrap(), b""); // Create survived, bytes did not.
        assert_eq!(vfs.open_handles(), 0);
    }

    #[test]
    fn fsynced_write_survives_crash() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        let fd = vfs.create(&env, "/f").unwrap();
        vfs.write(&env, fd, b"safe").unwrap();
        vfs.fsync(&env, fd).unwrap();
        vfs.write(&env, fd, b"gone").unwrap();
        vfs.close(&env, fd).unwrap();
        vfs.crash();
        assert_eq!(vfs.contents("/f").unwrap(), b"safe");
    }

    #[test]
    fn metadata_ops_are_journaled_durable() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.mkdir(&env, "/d").unwrap();
        vfs.seed_file("/old", b"bytes");
        vfs.unlink(&env, "/old").unwrap();
        vfs.seed_file("/from", b"payload");
        vfs.rename(&env, "/from", "/to").unwrap();
        vfs.crash();
        assert!(vfs.dir_exists("/d"));
        assert!(!vfs.file_exists("/old"));
        assert!(!vfs.file_exists("/from"));
        assert_eq!(vfs.contents("/to").unwrap(), b"payload");
    }

    #[test]
    fn truncating_create_discards_old_durable_bytes() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/f", b"precious");
        let fd = vfs.create(&env, "/f").unwrap();
        vfs.write(&env, fd, b"new").unwrap();
        vfs.close(&env, fd).unwrap();
        vfs.crash();
        // The truncation was journaled, the rewrite was not fsynced:
        // both the old and the new bytes are gone.
        assert_eq!(vfs.contents("/f").unwrap(), b"");
    }

    #[test]
    fn rename_of_unsynced_file_clobbers_durable_destination() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/dst", b"old durable");
        let fd = vfs.create(&env, "/src").unwrap();
        vfs.write(&env, fd, b"unsynced").unwrap();
        vfs.close(&env, fd).unwrap();
        vfs.rename(&env, "/src", "/dst").unwrap();
        vfs.crash();
        // The namespace change was journaled; the data never was. The
        // destination now denotes the created-then-never-synced inode.
        assert_eq!(vfs.contents("/dst").unwrap(), b"");
    }

    // ---- Rule-driven faults --------------------------------------------

    #[test]
    fn error_rule_fails_the_op_and_records_injection() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.arm_rules(vec![rule(
            VfsOp::Write,
            2,
            FaultKind::Error(Errno::ENOSPC),
        )]);
        let fd = vfs.create(&env, "/f").unwrap();
        vfs.write(&env, fd, b"first").unwrap();
        assert_eq!(
            vfs.write(&env, fd, b"second").unwrap_err(),
            VfsError::Injected(Errno::ENOSPC)
        );
        vfs.write(&env, fd, b"third").unwrap(); // Rules fire once.
        let inj = env.injections();
        assert_eq!(inj.len(), 1);
        assert_eq!(inj[0].fault.errno, Errno::ENOSPC);
        assert_eq!(inj[0].fault.call_number, 2);
    }

    #[test]
    fn short_write_rule_tears_the_buffer() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.arm_rules(vec![rule(VfsOp::Write, 1, FaultKind::ShortWrite)]);
        let fd = vfs.create(&env, "/f").unwrap();
        let n = vfs.write(&env, fd, b"abcdefgh").unwrap();
        assert_eq!(n, 4);
        assert_eq!(vfs.contents("/f").unwrap(), b"abcd");
        // A caller that checks the count can complete the write.
        let n2 = vfs.write(&env, fd, b"efgh").unwrap();
        assert_eq!(n2, 4);
        assert_eq!(vfs.contents("/f").unwrap(), b"abcdefgh");
    }

    #[test]
    fn dropped_fsync_reports_success_but_flushes_nothing() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.arm_rules(vec![rule(VfsOp::Fsync, 1, FaultKind::DropFsync)]);
        let fd = vfs.create(&env, "/f").unwrap();
        vfs.write(&env, fd, b"data").unwrap();
        vfs.fsync(&env, fd).unwrap(); // Lies.
        vfs.close(&env, fd).unwrap();
        vfs.crash();
        assert_eq!(vfs.contents("/f").unwrap(), b"");
        assert_eq!(env.injections().len(), 1);
    }

    #[test]
    fn torn_rename_resurrects_old_name_after_crash() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/a", b"payload");
        vfs.arm_rules(vec![rule(VfsOp::Rename, 1, FaultKind::TornRename)]);
        vfs.rename(&env, "/a", "/b").unwrap();
        assert!(vfs.file_exists("/b")); // Visible rename happened...
        assert!(!vfs.file_exists("/a"));
        vfs.crash();
        assert!(vfs.file_exists("/a")); // ...but never became durable.
        assert!(!vfs.file_exists("/b"));
        assert_eq!(vfs.contents("/a").unwrap(), b"payload");
    }

    #[test]
    fn rules_survive_crash_until_cleared() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.seed_file("/f", b"x");
        vfs.arm_rules(vec![rule(VfsOp::Open, 2, FaultKind::Error(Errno::EIO))]);
        assert!(vfs.open(&env, "/f").is_ok());
        vfs.crash();
        // The environment's fault is still armed after the crash...
        assert!(vfs.open(&env, "/f").is_err());
        vfs.clear_rules();
        // ...until the harness explicitly clears it for recovery.
        assert!(vfs.open(&env, "/f").is_ok());
    }

    #[test]
    fn replay_log_is_deterministic_and_complete() {
        let run = || {
            let env = LibcEnv::fault_free();
            let vfs = Vfs::new();
            vfs.arm_rules(vec![rule(VfsOp::Fsync, 1, FaultKind::DropFsync)]);
            let fd = vfs.create(&env, "/f").unwrap();
            vfs.write(&env, fd, b"123456").unwrap();
            vfs.fsync(&env, fd).unwrap();
            vfs.close(&env, fd).unwrap();
            vfs.rendered_log()
        };
        let a = run();
        assert_eq!(a, run());
        // create, write, fsync, close — every armed op is logged.
        assert_eq!(a.lines().count(), 4);
        assert!(a.contains("dropped-fsync"), "{a}");
    }

    #[test]
    fn dormant_layer_logs_nothing() {
        let env = LibcEnv::fault_free();
        let vfs = Vfs::new();
        vfs.write_all(&env, "/f", b"abc").unwrap();
        assert!(vfs.replay_log().is_empty());
        assert!(vfs.rendered_log().is_empty());
    }
}
