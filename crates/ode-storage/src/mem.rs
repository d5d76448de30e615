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
//! ## Sharding
//!
//! The page directory is split into a power-of-two array of shards; page
//! `id` lives in shard `id & mask` at index `id >> shift` (ids are
//! assigned round-robin by a lock-free counter, so each shard's vector
//! stays dense). Page access takes the shard read lock plus a *per-page*
//! latch, so writes to different pages — even in the same shard — run in
//! parallel; the shard write lock is only taken to grow the vector. With
//! one shard the store degrades to the original design — a process-wide
//! `RwLock` where every page write excludes all other page access
//! (`StorageOptions::shards = 1`).
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
    /// Page `id` lives at `shards[id & mask][id >> shift]`. Slots between
    /// a vector's length and a freshly allocated index are created blank
    /// on demand; a blank slot is indistinguishable from a page that was
    /// allocated and never written.
    shards: Box<[RwLock<Vec<RwLock<Page>>>]>,
    mask: u32,
    shift: u32,
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
    /// An empty store with the default shard count. Page 0 is reserved
    /// (parity with the disk layout) so data pages start at 1.
    pub fn new() -> MemStore {
        MemStore::with_shards(crate::buffer::DEFAULT_POOL_SHARDS)
    }

    /// An empty store whose page directory is split into `shards` shards
    /// (rounded up to a power of two; `1` reproduces the original
    /// process-wide-lock store).
    pub fn with_shards(shards: usize) -> MemStore {
        let n = shards.max(1).next_power_of_two();
        let store = MemStore {
            shards: (0..n).map(|_| RwLock::new(Vec::new())).collect(),
            mask: n as u32 - 1,
            shift: n.trailing_zeros(),
            next: AtomicU32::new(1),
        };
        store.shards[0].write().push(RwLock::new(Page::new()));
        store
    }

    fn slot(&self, id: PageId) -> (usize, usize) {
        ((id & self.mask) as usize, (id >> self.shift) as usize)
    }

    /// True when the store runs in the unsharded baseline configuration.
    fn single(&self) -> bool {
        self.mask == 0 && self.shift == 0
    }

    fn grow(shard: &mut Vec<RwLock<Page>>, len: usize) {
        while shard.len() < len {
            shard.push(RwLock::new(Page::new()));
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
        let (s, i) = self.slot(id);
        {
            let shard = self.shards[s].read();
            if let Some(page) = shard.get(i) {
                return Ok(f(&page.read()));
            }
        }
        // Allocated but never grown into the vector: materialize the slot.
        let mut shard = self.shards[s].write();
        Self::grow(&mut shard, i + 1);
        let out = f(&shard[i].read());
        Ok(out)
    }

    /// Write access to a page. Holds the shard read lock plus the page's
    /// own latch, so only writers of the *same page* exclude each other —
    /// except in the single-shard baseline, which takes the shard (i.e.
    /// whole-store) write lock like the original design did.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        self.check(id)?;
        let (s, i) = self.slot(id);
        if self.single() {
            let mut shard = self.shards[s].write();
            Self::grow(&mut shard, i + 1);
            return Ok(f(shard[i].get_mut()));
        }
        {
            let shard = self.shards[s].read();
            if let Some(page) = shard.get(i) {
                return Ok(f(&mut page.write()));
            }
        }
        let mut shard = self.shards[s].write();
        Self::grow(&mut shard, i + 1);
        let out = f(shard[i].get_mut());
        Ok(out)
    }

    /// Append a fresh page.
    pub fn allocate_page(&self) -> Result<PageId> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (s, i) = self.slot(id);
        let mut shard = self.shards[s].write();
        Self::grow(&mut shard, i + 1);
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
    /// a temp file + rename). All shards are read-locked (in index order)
    /// for the duration, so the image is a consistent snapshot.
    pub fn checkpoint_to(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("ckpt-tmp");
        {
            let count = self.page_count();
            let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
            let blank = Page::new();
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            f.write_all(MAGIC)?;
            f.write_all(&count.to_le_bytes())?;
            for id in 0..count {
                let (s, i) = self.slot(id);
                match guards[s].get(i) {
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

    /// Load a checkpoint image written by [`MemStore::checkpoint_to`] into
    /// a store with `shards` directory shards.
    pub fn load_from(path: &Path, shards: usize) -> Result<MemStore> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StorageError::Corrupt("bad magic in mem checkpoint".into()));
        }
        let mut nbuf = [0u8; 4];
        f.read_exact(&mut nbuf)?;
        let n = u32::from_le_bytes(nbuf);
        let store = MemStore::with_shards(shards);
        let mut buf = vec![0u8; PAGE_SIZE];
        for id in 0..n {
            f.read_exact(&mut buf)?;
            let (s, i) = store.slot(id);
            let mut shard = store.shards[s].write();
            Self::grow(&mut shard, i + 1);
            *shard[i].get_mut() = Page::from_bytes(&buf);
        }
        store.next.store(n.max(1), Ordering::Relaxed);
        Ok(store)
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
        let m2 = MemStore::load_from(&path, crate::buffer::DEFAULT_POOL_SHARDS).unwrap();
        assert_eq!(m2.page_count(), 2);
        let v = m2.with_page(id, |p| p.read(0).unwrap().to_vec()).unwrap();
        assert_eq!(v, b"survives");
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = TempDir::new("mem");
        let path = dir.file("bad");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        assert!(MemStore::load_from(&path, 1).is_err());
    }

    #[test]
    fn ensure_pages_extends() {
        let m = MemStore::new();
        m.ensure_pages(5).unwrap();
        assert_eq!(m.page_count(), 5);
        m.with_page(4, |p| assert!(p.is_empty())).unwrap();
    }

    #[test]
    fn pages_spread_over_shards_and_stay_addressable() {
        let m = MemStore::with_shards(8);
        let ids: Vec<PageId> = (0..64).map(|_| m.allocate_page().unwrap()).collect();
        for (k, &id) in ids.iter().enumerate() {
            m.with_page_mut(id, |p| p.set_cluster(k as u32)).unwrap();
        }
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(m.with_page(id, |p| p.cluster()).unwrap(), k as u32);
        }
        assert_eq!(m.page_count(), 65);
    }

    #[test]
    fn single_shard_reproduces_original_layout() {
        let m = MemStore::with_shards(1);
        assert_eq!(m.shards.len(), 1);
        let id = m.allocate_page().unwrap();
        m.with_page_mut(id, |p| p.set_cluster(3)).unwrap();
        assert_eq!(m.with_page(id, |p| p.cluster()).unwrap(), 3);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_pages() {
        let dir = TempDir::new("memstore-ckpt");
        let path = dir.path().join("img");
        let m = MemStore::with_shards(4);
        let ids: Vec<PageId> = (0..9).map(|_| m.allocate_page().unwrap()).collect();
        for (k, &id) in ids.iter().enumerate() {
            m.with_page_mut(id, |p| p.set_cluster(100 + k as u32))
                .unwrap();
        }
        m.checkpoint_to(&path).unwrap();
        let restored = MemStore::load_from(&path, 4).unwrap();
        assert_eq!(restored.page_count(), m.page_count());
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(
                restored.with_page(id, |p| p.cluster()).unwrap(),
                100 + k as u32
            );
        }
    }

    #[test]
    fn load_into_different_shard_count_preserves_pages() {
        let dir = TempDir::new("memstore-reshard");
        let path = dir.path().join("img");
        let m = MemStore::with_shards(8);
        let ids: Vec<PageId> = (0..20).map(|_| m.allocate_page().unwrap()).collect();
        for (k, &id) in ids.iter().enumerate() {
            m.with_page_mut(id, |p| p.set_cluster(k as u32)).unwrap();
        }
        m.checkpoint_to(&path).unwrap();
        for shards in [1usize, 2, 16] {
            let restored = MemStore::load_from(&path, shards).unwrap();
            for (k, &id) in ids.iter().enumerate() {
                assert_eq!(restored.with_page(id, |p| p.cluster()).unwrap(), k as u32);
            }
        }
    }
}
