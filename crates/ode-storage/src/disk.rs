//! File-backed page storage — the EOS stand-in's lowest layer.
//!
//! A database file is a flat array of [`PAGE_SIZE`] pages. Page 0 is the
//! database header (magic, format version, checkpoint counter); data pages
//! start at 1. All access goes through the buffer pool; this module only
//! knows how to read, write, and extend the file.
//!
//! ## Torn-page protection (doublewrite)
//!
//! Once the buffer pool steals dirty frames and the WAL is truncated
//! behind the checkpoint horizon, replay can no longer rebuild an
//! arbitrary page from log start — a page write torn mid-frame would be
//! unrecoverable. Every in-place page write therefore first appends the
//! full image to a sidecar doublewrite journal (`<db>.dw`): a torn
//! journal frame is ignored (the in-place write never started), a torn
//! in-place write is repaired at open from the journal's complete frame.
//! The journal is truncated at each checkpoint.

use crate::error::{Result, StorageError};
use crate::fault::{FaultFile, FaultInjector};
use crate::oid::PageId;
use crate::page::{Page, PAGE_SIZE};
use parking_lot::Mutex;
use std::fs::OpenOptions;
use std::io::SeekFrom;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"ODEDB\0\x01\x00";

/// The on-disk database header living in page 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbHeader {
    /// Number of pages in the file, including the header page.
    pub page_count: u32,
    /// Monotonic checkpoint counter; bumped on every checkpoint.
    pub checkpoint_seq: u64,
    /// Whether the database was closed cleanly (checkpointed, log empty).
    pub clean_shutdown: bool,
}

impl DbHeader {
    fn to_page(self) -> Page {
        let mut bytes = [0u8; PAGE_SIZE];
        bytes[0..8].copy_from_slice(MAGIC);
        bytes[8..12].copy_from_slice(&self.page_count.to_le_bytes());
        bytes[12..20].copy_from_slice(&self.checkpoint_seq.to_le_bytes());
        bytes[20] = u8::from(self.clean_shutdown);
        Page::from_bytes(&bytes)
    }

    fn from_page(page: &Page) -> Result<DbHeader> {
        let bytes = page.as_bytes();
        if &bytes[0..8] != MAGIC {
            return Err(StorageError::Corrupt("bad magic in header page".into()));
        }
        Ok(DbHeader {
            page_count: u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            checkpoint_seq: u64::from_le_bytes(bytes[12..20].try_into().unwrap()),
            clean_shutdown: bytes[20] == 1,
        })
    }
}

/// Checksum over a doublewrite frame's page image (same FNV-1a the WAL
/// uses for its frames).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Bytes per doublewrite journal frame: page id + checksum + image.
const DW_FRAME: usize = 8 + PAGE_SIZE;

fn dw_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".dw");
    PathBuf::from(os)
}

/// A page file on disk.
pub struct DiskFile {
    file: Mutex<FaultFile>,
    /// Cached page count (authoritative: kept in sync with the header).
    page_count: Mutex<u32>,
    /// Doublewrite journal. Held across the journal append *and* the
    /// in-place write so a checkpoint's journal truncation can never race
    /// between the two halves of a steal's write-back.
    dw: Mutex<FaultFile>,
}

impl DiskFile {
    /// Create a brand-new database file (fails if it exists with content).
    pub fn create(path: &Path) -> Result<DiskFile> {
        DiskFile::create_with(path, None)
    }

    /// Create, routing writes/fsyncs through an optional fault injector.
    pub fn create_with(path: &Path, injector: Option<Arc<FaultInjector>>) -> Result<DiskFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let dw = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dw_path(path))?;
        let disk = DiskFile {
            file: Mutex::new(FaultFile::new(file, injector.clone())),
            page_count: Mutex::new(1),
            dw: Mutex::new(FaultFile::new(dw, injector)),
        };
        disk.write_header(DbHeader {
            page_count: 1,
            checkpoint_seq: 0,
            clean_shutdown: true,
        })?;
        Ok(disk)
    }

    /// Open an existing database file.
    pub fn open(path: &Path) -> Result<DiskFile> {
        DiskFile::open_with(path, None)
    }

    /// Open, routing writes/fsyncs through an optional fault injector.
    /// Repairs torn in-place page writes from the doublewrite journal and
    /// truncates a torn tail page (a crash mid-extension) before any
    /// validation.
    pub fn open_with(path: &Path, injector: Option<Arc<FaultInjector>>) -> Result<DiskFile> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut file = FaultFile::new(file, injector.clone());
        let dw = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // Keep existing journal frames: they are replayed just below.
            .truncate(false)
            .open(dw_path(path))?;
        let mut dw = FaultFile::new(dw, injector);
        // Replay every complete doublewrite frame in order: page images
        // are idempotent, so re-applying ones whose in-place write did
        // succeed is harmless.
        dw.seek(SeekFrom::Start(0))?;
        let mut journal = Vec::new();
        dw.read_to_end(&mut journal)?;
        let mut cursor = &journal[..];
        while cursor.len() >= DW_FRAME {
            let id = u32::from_le_bytes(cursor[0..4].try_into().unwrap());
            let sum = u32::from_le_bytes(cursor[4..8].try_into().unwrap());
            let image = &cursor[8..DW_FRAME];
            if fnv1a(image) != sum {
                break; // torn journal tail: its in-place write never began
            }
            file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
            file.write_all(image)?;
            cursor = &cursor[DW_FRAME..];
        }
        dw.set_len(0)?;
        dw.seek(SeekFrom::Start(0))?;
        // A crash while extending the file can leave a torn tail page;
        // drop it (its contents were never acknowledged anywhere).
        let len = file.seek(SeekFrom::End(0))?;
        let whole = len - len % PAGE_SIZE as u64;
        if whole < len {
            file.set_len(whole)?;
        }
        if whole < PAGE_SIZE as u64 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is shorter than the header page"
            )));
        }
        let disk = DiskFile {
            file: Mutex::new(file),
            page_count: Mutex::new(0),
            dw: Mutex::new(dw),
        };
        let header = disk.read_header_raw()?;
        let physical = (whole / PAGE_SIZE as u64) as u32;
        // A crash can leave pages allocated after the last checkpoint, so
        // the file may legitimately be longer than the header records; the
        // physical length is the truth. Shorter than the header is real
        // corruption (truncated file).
        if header.page_count > physical {
            return Err(StorageError::Corrupt(format!(
                "header page_count {} exceeds file length {len}",
                header.page_count
            )));
        }
        *disk.page_count.lock() = physical;
        Ok(disk)
    }

    fn read_header_raw(&self) -> Result<DbHeader> {
        let page = self.read_page_internal(0)?;
        DbHeader::from_page(&page)
    }

    /// Read the database header.
    pub fn read_header(&self) -> Result<DbHeader> {
        self.read_header_raw()
    }

    /// Overwrite the database header. The running page count only grows
    /// here: the fuzzy checkpointer samples `page_count` and writes the
    /// header while transactions keep allocating, and a header sampled
    /// before a concurrent [`DiskFile::allocate_page`] must not roll the
    /// count back (the new page would then read as `NoSuchPage`).
    pub fn write_header(&self, header: DbHeader) -> Result<()> {
        {
            let mut count = self.page_count.lock();
            *count = (*count).max(header.page_count);
        }
        self.write_page(0, &header.to_page())
    }

    fn read_page_internal(&self, id: PageId) -> Result<Page> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read_exact(&mut buf)?;
        Ok(Page::from_bytes(&buf))
    }

    /// Read a data page.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        if id >= *self.page_count.lock() {
            return Err(StorageError::NoSuchPage(id));
        }
        self.read_page_internal(id)
    }

    /// Write a page image at its position (extends the file if needed),
    /// journaling the full image to the doublewrite file first so a torn
    /// in-place write is repairable at the next open.
    pub fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        let mut dw = self.dw.lock();
        dw.seek(SeekFrom::End(0))?;
        dw.write_all(&id.to_le_bytes())?;
        dw.write_all(&fnv1a(page.as_bytes()).to_le_bytes())?;
        dw.write_all(page.as_bytes())?;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        file.write_all(page.as_bytes())?;
        Ok(())
    }

    /// Truncate the doublewrite journal — only safe when every journaled
    /// in-place write has landed (checkpoint end, after the data fsync).
    pub fn dw_reset(&self) -> Result<()> {
        let mut dw = self.dw.lock();
        dw.set_len(0)?;
        dw.seek(SeekFrom::Start(0))?;
        Ok(())
    }

    /// Flush the doublewrite journal to stable storage.
    pub fn sync_dw(&self) -> Result<()> {
        self.dw.lock().sync_data()?;
        Ok(())
    }

    /// Append a fresh page and return its id. The header's page_count is
    /// updated lazily (at checkpoint), so the in-memory counter is the
    /// authority while running.
    pub fn allocate_page(&self) -> Result<PageId> {
        let mut count = self.page_count.lock();
        let id = *count;
        *count += 1;
        // Materialise the page so the file length always covers page_count.
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        file.write_all(Page::new().as_bytes())?;
        Ok(id)
    }

    /// Ensure the file contains at least `count` pages (used by recovery).
    pub fn ensure_pages(&self, count: u32) -> Result<()> {
        while *self.page_count.lock() < count {
            self.allocate_page()?;
        }
        Ok(())
    }

    /// Current page count including the header page.
    pub fn page_count(&self) -> u32 {
        *self.page_count.lock()
    }

    /// Flush OS buffers to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_testutil::TempDir;

    #[test]
    fn create_open_roundtrip() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        {
            let d = DiskFile::create(&path).unwrap();
            let p1 = d.allocate_page().unwrap();
            assert_eq!(p1, 1);
            let mut page = Page::new();
            page.insert(b"on disk").unwrap();
            d.write_page(p1, &page).unwrap();
            let mut h = d.read_header().unwrap();
            h.page_count = d.page_count();
            d.write_header(h).unwrap();
        }
        {
            let d = DiskFile::open(&path).unwrap();
            assert_eq!(d.page_count(), 2);
            let page = d.read_page(1).unwrap();
            assert_eq!(page.read(0).unwrap(), b"on disk");
        }
    }

    #[test]
    fn open_missing_file_fails() {
        let dir = TempDir::new("disk");
        assert!(DiskFile::open(&dir.file("nope")).is_err());
    }

    #[test]
    fn open_garbage_fails() {
        let dir = TempDir::new("disk");
        let path = dir.file("garbage");
        std::fs::write(&path, vec![0xAB; PAGE_SIZE]).unwrap();
        assert!(matches!(
            DiskFile::open(&path),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_file_fails() {
        let dir = TempDir::new("disk");
        let path = dir.file("short");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(matches!(
            DiskFile::open(&path),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn read_past_end_fails() {
        let dir = TempDir::new("disk");
        let d = DiskFile::create(&dir.file("db")).unwrap();
        assert!(matches!(d.read_page(5), Err(StorageError::NoSuchPage(5))));
    }

    #[test]
    fn torn_tail_page_is_dropped_at_open() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        {
            let d = DiskFile::create(&path).unwrap();
            d.allocate_page().unwrap();
        }
        // Crash mid-extension: half a page of garbage past the last page.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&vec![0xCD; PAGE_SIZE / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let d = DiskFile::open(&path).unwrap();
        assert_eq!(d.page_count(), 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            2 * PAGE_SIZE as u64
        );
    }

    #[test]
    fn doublewrite_repairs_torn_page_write() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        let mut good = Page::new();
        good.insert(b"committed image").unwrap();
        {
            let d = DiskFile::create(&path).unwrap();
            let p1 = d.allocate_page().unwrap();
            d.write_page(p1, &good).unwrap();
        }
        // Tear the in-place copy of page 1 (its doublewrite frame is
        // intact in the journal, as after a crash mid write-back).
        let mut bytes = std::fs::read(&path).unwrap();
        for b in &mut bytes[PAGE_SIZE..PAGE_SIZE + 64] {
            *b = 0xEE;
        }
        std::fs::write(&path, &bytes).unwrap();
        let d = DiskFile::open(&path).unwrap();
        assert_eq!(d.read_page(1).unwrap().as_bytes(), good.as_bytes());
        // The journal was drained by the repair.
        assert_eq!(std::fs::metadata(dw_path(&path)).unwrap().len(), 0);
    }

    #[test]
    fn torn_doublewrite_frame_is_ignored() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        let mut good = Page::new();
        good.insert(b"v1").unwrap();
        {
            let d = DiskFile::create(&path).unwrap();
            let p1 = d.allocate_page().unwrap();
            d.write_page(p1, &good).unwrap();
            d.dw_reset().unwrap();
        }
        // A torn journal append (crash before the in-place write began):
        // half a frame of garbage must not clobber the good page.
        let mut frame = vec![1u8, 0, 0, 0, 9, 9, 9, 9];
        frame.extend_from_slice(&vec![0xAB; PAGE_SIZE / 3]);
        std::fs::write(dw_path(&path), &frame).unwrap();
        let d = DiskFile::open(&path).unwrap();
        assert_eq!(d.read_page(1).unwrap().as_bytes(), good.as_bytes());
    }

    #[test]
    fn a_stale_header_never_shrinks_the_running_page_count() {
        let dir = TempDir::new("disk");
        let d = DiskFile::create(&dir.file("db")).unwrap();
        // A checkpointer samples the header, then a page is allocated
        // before it writes the header back.
        let mut h = d.read_header().unwrap();
        h.page_count = d.page_count();
        let id = d.allocate_page().unwrap();
        d.write_header(h).unwrap();
        assert_eq!(d.page_count(), id + 1);
        assert!(d.read_page(id).is_ok());
    }

    #[test]
    fn header_roundtrip() {
        let dir = TempDir::new("disk");
        let d = DiskFile::create(&dir.file("db")).unwrap();
        let h = DbHeader {
            page_count: 1,
            checkpoint_seq: 9,
            clean_shutdown: false,
        };
        d.write_header(h).unwrap();
        assert_eq!(d.read_header().unwrap(), h);
    }
}
