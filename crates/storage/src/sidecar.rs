//! The store-level sidecar file: the GC marker.
//!
//! `gc.wmark` records the oldest live sequence number after a retention
//! pass. It is small, CRC'd, and written atomically (temp + rename +
//! directory fsync) *before* the retired sealed files are unlinked, so a
//! crash between the two leaves segments that the next open recognises as
//! below the marker and deletes. It is also what tells an open on a
//! fully-retired prefix where sequence numbering resumes. A missing or
//! unreadable marker reads as "nothing retired" and never loses data.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use crate::crc32::crc32;
use crate::error::StorageError;
use crate::segment::sync_dir;

const MARKER_MAGIC: u32 = 0x5747_434D; // "WGCM"
const VERSION: u8 = 1;

/// Sidecar file name for the GC marker.
pub const GC_MARKER: &str = "gc.wmark";

/// Writes `dir/name` atomically and durably: temp file, write, fsync,
/// rename, directory fsync. `Ok` means the new contents survive a crash;
/// on any error the old file (if any) is still in place, possibly beside a
/// stray `name.tmp`.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)?;
    Ok(())
}

/// Writes the GC marker: the oldest sequence number still live.
pub fn write_gc_marker(dir: &Path, start: u64) -> Result<(), StorageError> {
    let mut body = Vec::with_capacity(4 + 1 + 8 + 4);
    body.extend_from_slice(&MARKER_MAGIC.to_be_bytes());
    body.push(VERSION);
    body.extend_from_slice(&start.to_be_bytes());
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_be_bytes());
    write_atomic(dir, GC_MARKER, &body)
}

/// Loads the GC marker; `0` (nothing retired) when absent or unreadable.
pub fn load_gc_marker(dir: &Path) -> u64 {
    let Ok(bytes) = std::fs::read(dir.join(GC_MARKER)) else {
        return 0;
    };
    if bytes.len() != 4 + 1 + 8 + 4 {
        return 0;
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let Ok(crc_bytes) = <[u8; 4]>::try_from(crc_bytes) else {
        return 0;
    };
    if crc32(body) != u32::from_be_bytes(crc_bytes) {
        return 0;
    }
    let magic = crate::bytes::be_u32_at(body, 0);
    let version = body.get(4).copied();
    let start = crate::bytes::be_u64_at(body, 5);
    match (magic, version, start) {
        (Some(MARKER_MAGIC), Some(VERSION), Some(start)) => start,
        _ => 0,
    }
}

/// Removes stray `*.tmp` files left by an interrupted atomic write, and the
/// `index.widx` locator checkpoint of stores written before sealed segments
/// described themselves.
pub fn remove_stray_files(dir: &Path) -> Result<(), StorageError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_str()
            .is_some_and(|name| name.ends_with(".tmp") || name == "index.widx")
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> crate::ScratchDir {
        let dir = crate::ScratchDir::new(&format!("sidecar-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn gc_marker_roundtrips_and_defaults_to_zero() {
        let dir = tempdir("gcm");
        assert_eq!(load_gc_marker(&dir), 0);
        write_gc_marker(&dir, 4242).unwrap();
        assert_eq!(load_gc_marker(&dir), 4242);
        // Corruption falls back to zero rather than inventing a frontier.
        let path = dir.join(GC_MARKER);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[6] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_gc_marker(&dir), 0);
    }

    #[test]
    fn stray_tmp_files_are_swept() {
        let dir = tempdir("tmp-sweep");
        std::fs::write(dir.join("leftover.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("gc.wmark.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("keep.wlog"), b"data").unwrap();
        remove_stray_files(&dir).unwrap();
        assert!(!dir.join("leftover.tmp").exists());
        assert!(!dir.join("gc.wmark.tmp").exists());
        assert!(dir.join("keep.wlog").exists());
    }
}
