//! A scratch directory that removes itself.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique path under the system temp directory whose tree is removed
/// when the guard drops — on a normal return and on unwind alike. The
/// directory itself is not created: stores and nodes create what they
/// open.
///
/// Drop the guard after whatever writes into it (a node's shutdown writes
/// a final checkpoint), or the writer re-creates the directory.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Picks `wedge-{tag}-{pid}-{n}` in the temp directory, unique within
    /// the process, and clears anything a former process of the same id
    /// left there.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("wedge-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_unique_and_removed_on_drop_and_unwind() {
        let a = ScratchDir::new("scratch-test");
        let b = ScratchDir::new("scratch-test");
        assert_ne!(a.path(), b.path());
        std::fs::create_dir_all(a.join("nested")).unwrap();
        std::fs::write(a.join("nested/file"), b"x").unwrap();
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists());

        let unwound = std::panic::catch_unwind(|| {
            let dir = ScratchDir::new("scratch-test");
            std::fs::create_dir_all(&*dir).unwrap();
            let path = dir.to_path_buf();
            std::panic::panic_any(path);
        })
        .unwrap_err();
        let path = unwound.downcast::<PathBuf>().unwrap();
        assert!(!path.exists(), "removed while unwinding");
    }
}
