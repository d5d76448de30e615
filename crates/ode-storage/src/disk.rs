//! File-backed page storage — the EOS stand-in's lowest layer.
//!
//! A database file is a flat array of [`PAGE_SIZE`] pages. Page 0 is the
//! database header; data pages start at 1. All access goes through the
//! buffer pool; this module only knows how to read, write, and extend the
//! file. Every page transfer is one positional call (`pread` /
//! `pwrite`): no seek, no staging buffer, no second copy.
//!
//! ## Torn pages
//!
//! An in-place page write is one `pwrite` and nothing more. Repairing a
//! write a crash tears is the log's job: the first change to a page after
//! a checkpoint begins logs the page's full image, so recovery restores
//! every page an in-place write could have torn from the one log it
//! already reads (see [`crate::wal`]). The caller owes only the
//! WAL-before-data flush through the page's LSN, which covers that image.
//!
//! ## The header page
//!
//! Page 0 is the one page written in place with no image in the log, so
//! no single write may tear it into nothing. The magic and the format
//! version (byte 20) are written once, at create. Each checkpoint then
//! writes `page_count | checkpoint_seq | checksum` (16 bytes, the checksum
//! FNV-1a over the first 12) into one of two slots on separate 512-byte
//! sectors, chosen by the sequence number's parity, with one `pwrite` of
//! that slot alone. Open takes the valid slot with the higher sequence
//! number, so a torn slot write leaves the other, one checkpoint older,
//! in force. A version-0 file, from when torn pages were repaired from a
//! sidecar doublewrite journal, is refused with
//! [`StorageError::UnsupportedFormat`]: its journal may hold repairs this
//! engine cannot apply.

use crate::error::{Result, StorageError};
use crate::fault::{FaultFile, FaultInjector};
use crate::oid::PageId;
use crate::page::{Page, PAGE_SIZE};
use crate::wal::fnv1a;
use parking_lot::Mutex;
use std::fs::OpenOptions;
use std::io::SeekFrom;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"ODEDB\0\x01\x00";

/// Byte of page 0 holding the format version.
const VERSION_BYTE: usize = 20;

/// Format version 1: full-page images in the WAL and two header slots.
const FORMAT_VERSION: u8 = 1;

/// Byte offsets of the two header slots, each on its own 512-byte sector.
const SLOTS: [usize; 2] = [512, 1024];

/// Bytes per header slot: page count, checkpoint sequence, checksum.
const SLOT_LEN: usize = 16;

/// The on-disk database header living in page 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbHeader {
    /// Number of pages in the file, including the header page.
    pub page_count: u32,
    /// Monotonic checkpoint counter; bumped on every checkpoint.
    pub checkpoint_seq: u64,
}

impl DbHeader {
    fn to_slot(self) -> [u8; SLOT_LEN] {
        let mut slot = [0u8; SLOT_LEN];
        slot[0..4].copy_from_slice(&self.page_count.to_le_bytes());
        slot[4..12].copy_from_slice(&self.checkpoint_seq.to_le_bytes());
        let sum = fnv1a(&slot[..12]);
        slot[12..].copy_from_slice(&sum.to_le_bytes());
        slot
    }

    /// The header a slot holds, or `None` when its checksum fails (never
    /// written, or torn).
    fn from_slot(slot: &[u8]) -> Option<DbHeader> {
        let (fields, sum) = slot.split_at(12);
        (fnv1a(fields).to_le_bytes()[..] == *sum).then(|| DbHeader {
            page_count: u32::from_le_bytes(fields[0..4].try_into().expect("4 bytes")),
            checkpoint_seq: u64::from_le_bytes(fields[4..12].try_into().expect("8 bytes")),
        })
    }

    /// Which slot a header with this sequence number is written to.
    fn slot_offset(self) -> usize {
        SLOTS[(self.checkpoint_seq % 2) as usize]
    }
}

fn page_offset(id: PageId) -> u64 {
    id as u64 * PAGE_SIZE as u64
}

/// A page file on disk.
pub struct DiskFile {
    file: FaultFile,
    /// Cached page count (authoritative: kept in sync with the header).
    page_count: Mutex<u32>,
}

impl DiskFile {
    /// Create a brand-new database file, routing writes and fsyncs
    /// through an optional fault injector. Page 0 is written whole, once:
    /// magic, format version, and the first header slot.
    pub fn create(path: &Path, injector: Option<Arc<FaultInjector>>) -> Result<DiskFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let header = DbHeader {
            page_count: 1,
            checkpoint_seq: 0,
        };
        let mut page = [0u8; PAGE_SIZE];
        page[0..8].copy_from_slice(MAGIC);
        page[VERSION_BYTE] = FORMAT_VERSION;
        let at = header.slot_offset();
        page[at..at + SLOT_LEN].copy_from_slice(&header.to_slot());
        let file = FaultFile::new(file, injector);
        file.write_all_at(&page, 0)?;
        Ok(DiskFile {
            file,
            page_count: Mutex::new(1),
        })
    }

    /// Open an existing database file, routing writes and fsyncs through
    /// an optional fault injector. Truncates a torn tail page (a crash
    /// mid-extension) before any validation. A file of another format
    /// version is refused with [`StorageError::UnsupportedFormat`].
    pub fn open(path: &Path, injector: Option<Arc<FaultInjector>>) -> Result<DiskFile> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut file = FaultFile::new(file, injector);
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
            file,
            page_count: Mutex::new(0),
        };
        let header = disk.read_header()?;
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

    /// Read the database header: check the magic and the format version,
    /// then take the valid slot with the higher sequence number.
    pub fn read_header(&self) -> Result<DbHeader> {
        let mut bytes = [0u8; SLOTS[1] + SLOT_LEN];
        self.file.read_exact_at(&mut bytes, 0)?;
        if &bytes[0..8] != MAGIC {
            return Err(StorageError::Corrupt("bad magic in header page".into()));
        }
        match bytes[VERSION_BYTE] {
            FORMAT_VERSION => {}
            0 => {
                return Err(StorageError::UnsupportedFormat(
                    "data file format version 0 predates full-page images in the WAL: \
                     its torn-page repairs live in a doublewrite journal this engine \
                     does not read"
                        .into(),
                ))
            }
            v => {
                return Err(StorageError::UnsupportedFormat(format!(
                    "data file format version {v}; this engine reads version {FORMAT_VERSION}"
                )))
            }
        }
        SLOTS
            .iter()
            .filter_map(|&at| DbHeader::from_slot(&bytes[at..at + SLOT_LEN]))
            .max_by_key(|h| h.checkpoint_seq)
            .ok_or_else(|| StorageError::Corrupt("no valid header slot".into()))
    }

    /// Write the database header: one `pwrite` of its slot. The running
    /// page count only grows here: the fuzzy checkpointer samples
    /// `page_count` and writes the header while transactions keep
    /// allocating, and a header sampled before a concurrent
    /// [`DiskFile::allocate_page`] must not roll the count back (the new
    /// page would then read as `NoSuchPage`).
    pub fn write_header(&self, header: DbHeader) -> Result<()> {
        {
            let mut count = self.page_count.lock();
            *count = (*count).max(header.page_count);
        }
        self.file
            .write_all_at(&header.to_slot(), header.slot_offset() as u64)?;
        Ok(())
    }

    /// Read a data page: one `pread` straight into the page's own buffer.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        if id >= *self.page_count.lock() {
            return Err(StorageError::NoSuchPage(id));
        }
        let mut page = Page::new();
        self.file
            .read_exact_at(page.as_bytes_mut(), page_offset(id))?;
        Ok(page)
    }

    /// Write a page image at its position (extends the file if needed):
    /// one positional write. The caller has flushed the WAL through the
    /// page's LSN, which covers any image a tear here would need.
    pub fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        self.file.write_all_at(page.as_bytes(), page_offset(id))?;
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
        self.file
            .write_all_at(Page::new().as_bytes(), page_offset(id))?;
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
        self.file.sync_data()?;
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
            let d = DiskFile::create(&path, None).unwrap();
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
            let d = DiskFile::open(&path, None).unwrap();
            assert_eq!(d.page_count(), 2);
            let page = d.read_page(1).unwrap();
            assert_eq!(page.read(0).unwrap(), b"on disk");
        }
    }

    #[test]
    fn open_missing_file_fails() {
        let dir = TempDir::new("disk");
        assert!(DiskFile::open(&dir.file("nope"), None).is_err());
    }

    #[test]
    fn open_garbage_fails() {
        let dir = TempDir::new("disk");
        let path = dir.file("garbage");
        std::fs::write(&path, vec![0xAB; PAGE_SIZE]).unwrap();
        assert!(matches!(
            DiskFile::open(&path, None),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_file_fails() {
        let dir = TempDir::new("disk");
        let path = dir.file("short");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(matches!(
            DiskFile::open(&path, None),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn read_past_end_fails() {
        let dir = TempDir::new("disk");
        let d = DiskFile::create(&dir.file("db"), None).unwrap();
        assert!(matches!(d.read_page(5), Err(StorageError::NoSuchPage(5))));
    }

    #[test]
    fn torn_tail_page_is_dropped_at_open() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        {
            let d = DiskFile::create(&path, None).unwrap();
            d.allocate_page().unwrap();
        }
        // Crash mid-extension: half a page of garbage past the last page.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&vec![0xCD; PAGE_SIZE / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let d = DiskFile::open(&path, None).unwrap();
        assert_eq!(d.page_count(), 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            2 * PAGE_SIZE as u64
        );
    }

    #[test]
    fn a_stale_header_never_shrinks_the_running_page_count() {
        let dir = TempDir::new("disk");
        let d = DiskFile::create(&dir.file("db"), None).unwrap();
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
        let d = DiskFile::create(&dir.file("db"), None).unwrap();
        let h = DbHeader {
            page_count: 1,
            checkpoint_seq: 9,
        };
        d.write_header(h).unwrap();
        assert_eq!(d.read_header().unwrap(), h);
    }

    #[test]
    fn a_torn_header_slot_write_leaves_the_older_checkpoint_in_force() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        let injector = Arc::new(FaultInjector::new());
        {
            let d = DiskFile::create(&path, Some(Arc::clone(&injector))).unwrap();
            d.allocate_page().unwrap();
            let older = DbHeader {
                page_count: 2,
                checkpoint_seq: 1,
            };
            let before = injector.written();
            d.write_header(older).unwrap();
            assert_eq!(
                injector.written() - before,
                SLOT_LEN as u64,
                "one slot, one write"
            );
            // The next checkpoint's slot write dies 6 bytes in.
            injector.arm_write_cap(6);
            let newer = DbHeader {
                page_count: 2,
                checkpoint_seq: 2,
            };
            assert!(d.write_header(newer).is_err());
        }
        let d = DiskFile::open(&path, None).unwrap();
        assert_eq!(
            d.read_header().unwrap(),
            DbHeader {
                page_count: 2,
                checkpoint_seq: 1
            }
        );
    }

    #[test]
    fn a_file_of_another_format_version_is_refused_by_name() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        DiskFile::create(&path, None).unwrap();
        for (version, named) in [(0u8, "full-page images"), (2, "version 2")] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[VERSION_BYTE] = version;
            std::fs::write(&path, &bytes).unwrap();
            match DiskFile::open(&path, None) {
                Err(StorageError::UnsupportedFormat(why)) => assert!(why.contains(named), "{why}"),
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("a version-{version} file was opened"),
            }
        }
    }
}
