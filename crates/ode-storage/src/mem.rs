//! Main-memory page store — the Dali stand-in backing MM-Ode.
//!
//! Pages live in RAM; there is no buffer pool and no per-operation I/O,
//! which is exactly the performance profile the paper's MM-Ode sought.
//! Durability is optional: a checkpoint writes the full page image to a
//! file, and `load` restores it. (Dali offered checkpoint-based persistence
//! for main-memory databases; we reproduce the same shape.) The transaction
//! layer above provides rollback via in-memory undo, shared with the disk
//! engine just as Ode and MM-Ode share their run-time system (§5.6).
//!
//! ## Page latches
//!
//! The page directory is one vector behind a `RwLock`, and each page has
//! its own latch. Page access takes the directory read lock plus the
//! page's latch, so writes to different pages run in parallel; the
//! directory write lock is only taken to grow the vector.
//!
//! ## MVCC readers
//!
//! Snapshot readers (see [`crate::version`]) that fall back to the pages
//! for untracked objects synchronize on nothing but these per-page
//! latches — no lock-manager locks, no transaction-table waits. The
//! latches are held only for the duration of one cell copy, so a reader
//! can delay a writer by at most one page access, never for a lock span.

use crate::error::{Result, StorageError};
use crate::oid::PageId;
use crate::page::{Page, PAGE_SIZE};
use parking_lot::RwLock;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};

const MAGIC: &[u8; 8] = b"ODEMM\0\x01\x00";

/// An in-memory page store.
pub struct MemStore {
    /// Page `id` lives at `pages[id]`. Slots between the vector's length
    /// and a freshly allocated id are created blank on demand; a blank
    /// slot is indistinguishable from a page that was allocated and never
    /// written.
    pages: RwLock<Vec<RwLock<Page>>>,
    /// Next page id to hand out (== page count including reserved page 0).
    /// Ids travel between threads through lock-protected structures, so
    /// relaxed ordering suffices.
    next: AtomicU32,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore::new()
    }
}

impl MemStore {
    /// An empty store. Page 0 is reserved (parity with the disk layout) so
    /// data pages start at 1.
    pub fn new() -> MemStore {
        MemStore {
            pages: RwLock::new(vec![RwLock::new(Page::new())]),
            next: AtomicU32::new(1),
        }
    }

    fn grow(pages: &mut Vec<RwLock<Page>>, len: usize) {
        while pages.len() < len {
            pages.push(RwLock::new(Page::new()));
        }
    }

    fn check(&self, id: PageId) -> Result<()> {
        if id < self.next.load(Ordering::Relaxed) {
            Ok(())
        } else {
            Err(StorageError::NoSuchPage(id))
        }
    }

    /// Read access to a page.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        self.check(id)?;
        let i = id as usize;
        {
            let pages = self.pages.read();
            if let Some(page) = pages.get(i) {
                return Ok(f(&page.read()));
            }
        }
        // Allocated but never grown into the vector: materialize the slot.
        let mut pages = self.pages.write();
        Self::grow(&mut pages, i + 1);
        let out = f(&pages[i].read());
        Ok(out)
    }

    /// Write access to a page. Holds the directory read lock plus the
    /// page's own latch, so only writers of the *same page* exclude each
    /// other.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        self.check(id)?;
        let i = id as usize;
        {
            let pages = self.pages.read();
            if let Some(page) = pages.get(i) {
                return Ok(f(&mut page.write()));
            }
        }
        let mut pages = self.pages.write();
        Self::grow(&mut pages, i + 1);
        let out = f(pages[i].get_mut());
        Ok(out)
    }

    /// Append a fresh page.
    pub fn allocate_page(&self) -> Result<PageId> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Self::grow(&mut self.pages.write(), id as usize + 1);
        Ok(id)
    }

    /// Ensure at least `count` pages exist (recovery/checkpoint load).
    pub fn ensure_pages(&self, count: u32) -> Result<()> {
        self.next.fetch_max(count.max(1), Ordering::Relaxed);
        Ok(())
    }

    /// Number of pages including the reserved page 0.
    pub fn page_count(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }

    /// Write a full checkpoint image of the store to `path` (atomically via
    /// a temp file + rename). The directory is read-locked for the
    /// duration, so the image is a consistent snapshot.
    pub fn checkpoint_to(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("ckpt-tmp");
        {
            let count = self.page_count();
            let pages = self.pages.read();
            let blank = Page::new();
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            f.write_all(MAGIC)?;
            f.write_all(&count.to_le_bytes())?;
            for id in 0..count {
                match pages.get(id as usize) {
                    Some(page) => f.write_all(page.read().as_bytes())?,
                    None => f.write_all(blank.as_bytes())?,
                }
            }
            f.flush()?;
            f.get_ref().sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load a checkpoint image written by [`MemStore::checkpoint_to`].
    pub fn load_from(path: &Path) -> Result<MemStore> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StorageError::Corrupt("bad magic in mem checkpoint".into()));
        }
        let mut nbuf = [0u8; 4];
        f.read_exact(&mut nbuf)?;
        let n = u32::from_le_bytes(nbuf);
        // `n` is read from the file: grow as pages arrive, so a corrupt
        // count fails at end of file instead of reserving memory up front.
        let mut pages = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        for _ in 0..n {
            f.read_exact(&mut buf)?;
            pages.push(RwLock::new(Page::from_bytes(&buf)));
        }
        Ok(MemStore {
            pages: RwLock::new(pages),
            next: AtomicU32::new(n.max(1)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_testutil::TempDir;

    #[test]
    fn allocate_and_access() {
        let m = MemStore::new();
        let id = m.allocate_page().unwrap();
        assert_eq!(id, 1);
        m.with_page_mut(id, |p| {
            p.set_cluster(7);
        })
        .unwrap();
        assert_eq!(m.with_page(id, |p| p.cluster()).unwrap(), 7);
        assert!(matches!(
            m.with_page(99, |_| ()),
            Err(StorageError::NoSuchPage(99))
        ));
    }

    #[test]
    fn missing_page_errors() {
        let m = MemStore::new();
        assert!(matches!(
            m.with_page(9, |_| ()),
            Err(StorageError::NoSuchPage(9))
        ));
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = TempDir::new("mem");
        let path = dir.file("ckpt");
        let m = MemStore::new();
        let id = m.allocate_page().unwrap();
        m.with_page_mut(id, |p| {
            p.insert(b"survives").unwrap();
        })
        .unwrap();
        m.checkpoint_to(&path).unwrap();
        let m2 = MemStore::load_from(&path).unwrap();
        assert_eq!(m2.page_count(), 2);
        let v = m2.with_page(id, |p| p.read(0).unwrap().to_vec()).unwrap();
        assert_eq!(v, b"survives");
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = TempDir::new("mem");
        let path = dir.file("bad");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        assert!(MemStore::load_from(&path).is_err());
    }

    #[test]
    fn ensure_pages_extends() {
        let m = MemStore::new();
        m.ensure_pages(5).unwrap();
        assert_eq!(m.page_count(), 5);
        m.with_page(4, |p| assert!(p.is_empty())).unwrap();
    }

    #[test]
    fn checkpoint_roundtrip_preserves_pages() {
        let dir = TempDir::new("memstore-ckpt");
        let path = dir.path().join("img");
        let m = MemStore::new();
        let ids: Vec<PageId> = (0..9).map(|_| m.allocate_page().unwrap()).collect();
        for (k, &id) in ids.iter().enumerate() {
            m.with_page_mut(id, |p| p.set_cluster(100 + k as u32))
                .unwrap();
        }
        m.checkpoint_to(&path).unwrap();
        let restored = MemStore::load_from(&path).unwrap();
        assert_eq!(restored.page_count(), m.page_count());
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(
                restored.with_page(id, |p| p.cluster()).unwrap(),
                100 + k as u32
            );
        }
    }
}
