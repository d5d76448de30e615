//! File-backed page storage — the EOS stand-in's lowest layer.
//!
//! A database file is a flat array of [`PAGE_SIZE`] pages. Page 0 is the
//! database header (magic, format version, checkpoint counter); data pages
//! start at 1. All access goes through the buffer pool; this module only
//! knows how to read, write, and extend the file. Every page transfer is
//! one positional call (`pread` / `pwrite`): no seek, no staging buffer.
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
//! The journal is truncated back to its header at each checkpoint.
//!
//! The journal is an 8-byte header (magic `ODEDW\0`, then a little-endian
//! `u16` format version) followed by frames of `[page id u32][sum
//! u32][image]`. A steal costs two writes: the frame, built in one buffer
//! and appended with one `pwrite` at the journal end kept under the
//! journal mutex, then the image in place with one `pwrite`. The sum is
//! `frame_sum`, a four-lane multiply-rotate hash over the image's
//! little-endian `u64` words seeded with the page id. Its one job is to
//! tell a complete frame from one whose bytes never all landed, so it
//! needs to see every changed word, not resist an adversary. A non-empty
//! journal without the header (one written before the header existed,
//! whose frames were summed differently) is refused with
//! [`StorageError::UnsupportedFormat`] rather than skipped frame by frame,
//! which would silently drop its torn-page repairs.

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

/// The doublewrite journal's header: magic, then format version 2
/// (version 1 was the header-less journal summed with byte-wise FNV-1a).
const DW_HEADER: &[u8; 8] = b"ODEDW\0\x02\x00";

/// The on-disk database header living in page 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbHeader {
    /// Number of pages in the file, including the header page.
    pub page_count: u32,
    /// Monotonic checkpoint counter; bumped on every checkpoint.
    pub checkpoint_seq: u64,
}

impl DbHeader {
    fn to_page(self) -> Page {
        let mut bytes = [0u8; PAGE_SIZE];
        bytes[0..8].copy_from_slice(MAGIC);
        bytes[8..12].copy_from_slice(&self.page_count.to_le_bytes());
        bytes[12..20].copy_from_slice(&self.checkpoint_seq.to_le_bytes());
        // Byte 20 and the rest of the page stay zero: reserved, byte 20
        // for a format version.
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
        })
    }
}

/// Checksum of a doublewrite frame: four independent lanes, each folding
/// in every fourth little-endian `u64` word of the image as `lane = (lane
/// ^ word) * K` rotated left 29, seeded with the page id, then mixed down
/// to 32 bits. Each step is a bijection of the lane for a fixed word and
/// of the word for a fixed lane, so two images that differ in any word
/// leave some lane different; only the final fold can collide (about
/// 2^-32). The lanes have no data dependence on each other, so the loop
/// runs at the multiplier's throughput rather than its latency.
fn frame_sum(id: PageId, image: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    debug_assert_eq!(image.len() % 32, 0);
    let mut lanes = [
        u64::from(id) ^ 0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    for block in image.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().unwrap());
            *lane = ((*lane ^ word).wrapping_mul(K)).rotate_left(29);
        }
    }
    let mut h =
        lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h ^ (h >> 32)) as u32
}

/// Bytes per doublewrite journal frame: page id + checksum + image.
const DW_FRAME: usize = 8 + PAGE_SIZE;

fn dw_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".dw");
    PathBuf::from(os)
}

fn page_offset(id: PageId) -> u64 {
    id as u64 * PAGE_SIZE as u64
}

/// The doublewrite journal and the state of its append.
struct Journal {
    file: FaultFile,
    /// Byte offset of the next frame (the journal's length).
    end: u64,
    /// The frame under construction, reused by every append.
    frame: Box<[u8; DW_FRAME]>,
}

impl Journal {
    /// A journal over `file`, emptied down to its header.
    fn start(file: FaultFile) -> Result<Journal> {
        let mut journal = Journal {
            file,
            end: 0,
            frame: Box::new([0u8; DW_FRAME]),
        };
        journal.reset()?;
        Ok(journal)
    }

    /// Truncate to an empty journal: just the header.
    fn reset(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.write_all_at(DW_HEADER, 0)?;
        self.end = DW_HEADER.len() as u64;
        Ok(())
    }
}

/// A page file on disk.
pub struct DiskFile {
    file: Mutex<FaultFile>,
    /// Cached page count (authoritative: kept in sync with the header).
    page_count: Mutex<u32>,
    /// Doublewrite journal. Held across the journal append *and* the
    /// in-place write so a checkpoint's journal truncation can never race
    /// between the two halves of a steal's write-back.
    dw: Mutex<Journal>,
    /// Whether each journal frame is synced before its in-place write.
    fsync: bool,
}

impl DiskFile {
    /// Create a brand-new database file (fails if it exists with content).
    pub fn create(path: &Path) -> Result<DiskFile> {
        DiskFile::create_with(path, false, None)
    }

    /// Create, routing writes/fsyncs through an optional fault injector.
    /// With `fsync`, every page write syncs its doublewrite frame before
    /// writing in place.
    pub fn create_with(
        path: &Path,
        fsync: bool,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<DiskFile> {
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
        let journal = Journal::start(FaultFile::new(dw, injector.clone()))?;
        let disk = DiskFile {
            file: Mutex::new(FaultFile::new(file, injector)),
            page_count: Mutex::new(1),
            dw: Mutex::new(journal),
            fsync,
        };
        disk.write_header(DbHeader {
            page_count: 1,
            checkpoint_seq: 0,
        })?;
        Ok(disk)
    }

    /// Open an existing database file.
    pub fn open(path: &Path) -> Result<DiskFile> {
        DiskFile::open_with(path, false, None)
    }

    /// Open, routing writes/fsyncs through an optional fault injector
    /// (`fsync` as for [`DiskFile::create_with`]).
    /// Repairs torn in-place page writes from the doublewrite journal and
    /// truncates a torn tail page (a crash mid-extension) before any
    /// validation. A non-empty journal without the current header is
    /// refused with [`StorageError::UnsupportedFormat`].
    pub fn open_with(
        path: &Path,
        fsync: bool,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<DiskFile> {
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
        let mut journal = Vec::new();
        dw.read_to_end(&mut journal)?;
        let frames = match journal.strip_prefix(DW_HEADER.as_slice()) {
            Some(frames) => frames,
            // Empty, or a header whose write a crash tore: no frames.
            None if DW_HEADER.starts_with(&journal) => &[],
            None => {
                return Err(StorageError::UnsupportedFormat(format!(
                    "doublewrite journal {} has {} bytes but no version-2 header",
                    dw_path(path).display(),
                    journal.len()
                )))
            }
        };
        // Replay every complete doublewrite frame in order: page images
        // are idempotent, so re-applying ones whose in-place write did
        // succeed is harmless.
        for frame in frames.chunks_exact(DW_FRAME) {
            let id = u32::from_le_bytes(frame[0..4].try_into().unwrap());
            let sum = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            let image = &frame[8..];
            if frame_sum(id, image) != sum {
                break; // torn journal tail: its in-place write never began
            }
            file.write_all_at(image, page_offset(id))?;
        }
        let journal = Journal::start(dw)?;
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
            dw: Mutex::new(journal),
            fsync,
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

    /// One `pread` straight into the new page's own buffer.
    fn read_page_internal(&self, id: PageId) -> Result<Page> {
        let mut page = Page::new();
        self.file
            .lock()
            .read_exact_at(page.as_bytes_mut(), page_offset(id))?;
        Ok(page)
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
    /// in-place write is repairable at the next open: one framed
    /// journal append, then one in-place write. With `fsync` the frame is
    /// synced between the two, so no power loss can tear the page before
    /// its repair image is durable.
    pub fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        let image = page.as_bytes();
        let sum = frame_sum(id, image);
        let mut dw = self.dw.lock();
        let Journal { file, end, frame } = &mut *dw;
        frame[0..4].copy_from_slice(&id.to_le_bytes());
        frame[4..8].copy_from_slice(&sum.to_le_bytes());
        frame[8..].copy_from_slice(image);
        file.write_all_at(&frame[..], *end)?;
        *end += DW_FRAME as u64;
        if self.fsync {
            file.sync_data()?;
        }
        self.file.lock().write_all_at(image, page_offset(id))?;
        Ok(())
    }

    /// Truncate the doublewrite journal to its header — only safe when
    /// every journaled in-place write has landed (checkpoint end, after
    /// the data fsync).
    pub fn dw_reset(&self) -> Result<()> {
        self.dw.lock().reset()
    }

    /// Flush the doublewrite journal to stable storage.
    pub fn sync_dw(&self) -> Result<()> {
        self.dw.lock().file.sync_data()?;
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
            .lock()
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
        // The journal was drained by the repair, down to its header.
        assert_eq!(std::fs::read(dw_path(&path)).unwrap(), DW_HEADER);
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
        let mut journal = DW_HEADER.to_vec();
        journal.extend_from_slice(&[1u8, 0, 0, 0, 9, 9, 9, 9]);
        journal.extend_from_slice(&vec![0xAB; PAGE_SIZE / 3]);
        std::fs::write(dw_path(&path), &journal).unwrap();
        let d = DiskFile::open(&path).unwrap();
        assert_eq!(d.read_page(1).unwrap().as_bytes(), good.as_bytes());
    }

    /// A database whose page 1 holds `old` in place while its journal
    /// holds one complete frame carrying `new` for page 1.
    fn journaled_over(path: &Path, old: &Page, new: &Page) {
        {
            let d = DiskFile::create(path).unwrap();
            let p1 = d.allocate_page().unwrap();
            d.write_page(p1, old).unwrap();
            d.dw_reset().unwrap();
            d.write_page(p1, new).unwrap();
        }
        let mut bytes = std::fs::read(path).unwrap();
        bytes[PAGE_SIZE..2 * PAGE_SIZE].copy_from_slice(old.as_bytes());
        std::fs::write(path, &bytes).unwrap();
        assert_eq!(
            std::fs::metadata(dw_path(path)).unwrap().len(),
            (DW_HEADER.len() + DW_FRAME) as u64
        );
    }

    fn page_with(text: &[u8]) -> Page {
        let mut page = Page::new();
        page.insert(text).unwrap();
        page
    }

    #[test]
    fn a_full_length_frame_with_a_flipped_byte_is_not_replayed() {
        let dir = TempDir::new("disk");
        let (old, new) = (page_with(b"in place"), page_with(b"journaled"));
        // Control: the intact frame is replayed over the old image.
        let path = dir.file("intact");
        journaled_over(&path, &old, &new);
        let d = DiskFile::open(&path).unwrap();
        assert_eq!(d.read_page(1).unwrap().as_bytes(), new.as_bytes());
        // One flipped image byte: the frame fails its sum and is skipped.
        let path = dir.file("flipped");
        journaled_over(&path, &old, &new);
        let mut journal = std::fs::read(dw_path(&path)).unwrap();
        journal[DW_HEADER.len() + 8 + PAGE_SIZE / 2] ^= 0x10;
        std::fs::write(dw_path(&path), &journal).unwrap();
        let d = DiskFile::open(&path).unwrap();
        assert_eq!(d.read_page(1).unwrap().as_bytes(), old.as_bytes());
        assert_eq!(std::fs::read(dw_path(&path)).unwrap(), DW_HEADER);
    }

    /// Write `new` over page 1 (holding `old`) with the device dying
    /// after `cap` more bytes, then reopen without faults.
    fn steal_with_cap(dir: &TempDir, name: &str, cap: u64, old: &Page, new: &Page) -> DiskFile {
        let path = dir.file(name);
        let injector = Arc::new(FaultInjector::new());
        {
            let d = DiskFile::create_with(&path, false, Some(Arc::clone(&injector))).unwrap();
            let p1 = d.allocate_page().unwrap();
            d.write_page(p1, old).unwrap();
            d.dw_reset().unwrap();
            injector.arm_write_cap(cap);
            assert!(d.write_page(p1, new).is_err());
            assert_eq!(injector.injected(), 1);
        }
        DiskFile::open(&path).unwrap()
    }

    #[test]
    fn a_tear_inside_the_framed_append_leaves_the_page_and_is_ignored() {
        let dir = TempDir::new("disk");
        let (old, new) = (page_with(b"v1"), page_with(b"v2"));
        for cap in [0, 6, 8 + 100, DW_FRAME as u64 - 1] {
            let d = steal_with_cap(&dir, &format!("cap{cap}"), cap, &old, &new);
            assert_eq!(d.read_page(1).unwrap().as_bytes(), old.as_bytes());
        }
    }

    #[test]
    fn a_tear_inside_the_in_place_write_is_repaired_from_the_frame() {
        let dir = TempDir::new("disk");
        let (old, new) = (page_with(b"v1"), page_with(b"v2"));
        let cap = (DW_FRAME + PAGE_SIZE / 2) as u64;
        let d = steal_with_cap(&dir, "in-place", cap, &old, &new);
        assert_eq!(d.read_page(1).unwrap().as_bytes(), new.as_bytes());
    }

    #[test]
    fn with_fsync_a_frame_that_fails_to_sync_stops_the_write_in_place() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        let (old, new) = (page_with(b"v1"), page_with(b"v2"));
        let injector = Arc::new(FaultInjector::new());
        {
            let d = DiskFile::create_with(&path, true, Some(Arc::clone(&injector))).unwrap();
            let p1 = d.allocate_page().unwrap();
            d.write_page(p1, &old).unwrap();
            injector.arm_fail_fsync();
            assert!(d.write_page(p1, &new).is_err());
            assert_eq!(injector.injected(), 1);
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[PAGE_SIZE..2 * PAGE_SIZE], old.as_bytes());
    }

    #[test]
    fn a_headerless_journal_is_refused_and_an_empty_one_opens() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        let page = page_with(b"kept");
        {
            let d = DiskFile::create(&path).unwrap();
            let p1 = d.allocate_page().unwrap();
            d.write_page(p1, &page).unwrap();
        }
        // A journal from before the header: one whole `[id][sum][image]`
        // frame at offset 0.
        let mut old = vec![1u8, 0, 0, 0, 0, 0, 0, 0];
        old.extend_from_slice(page.as_bytes());
        std::fs::write(dw_path(&path), &old).unwrap();
        match DiskFile::open(&path) {
            Err(StorageError::UnsupportedFormat(why)) => assert!(why.contains("header"), "{why}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a header-less journal was replayed"),
        }
        // The refusal changed nothing: the journal is still there.
        assert_eq!(std::fs::read(dw_path(&path)).unwrap(), old);
        // An empty journal (or a torn header write) holds no frames.
        for journal in [&[][..], &DW_HEADER[..3]] {
            std::fs::write(dw_path(&path), journal).unwrap();
            let d = DiskFile::open(&path).unwrap();
            assert_eq!(d.read_page(1).unwrap().as_bytes(), page.as_bytes());
            assert_eq!(std::fs::read(dw_path(&path)).unwrap(), DW_HEADER);
        }
    }

    #[test]
    fn frame_sum_sees_single_bit_flips_and_the_page_id() {
        let image: Vec<u8> = (0..PAGE_SIZE as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let sum = frame_sum(7, &image);
        assert_ne!(frame_sum(8, &image), sum);
        // A zero-filled frame (a file extended but never written) must
        // not pass as page 0 with sum 0.
        assert_ne!(frame_sum(0, &[0u8; PAGE_SIZE]), 0);
        let mut flipped = image.clone();
        for bit in (0..PAGE_SIZE * 8).step_by(3) {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(frame_sum(7, &flipped), sum, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
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
        };
        d.write_header(h).unwrap();
        assert_eq!(d.read_header().unwrap(), h);
    }
}
