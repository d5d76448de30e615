//! Buffer pool for the disk engine.
//!
//! A GCLOCK-replacement cache of page frames over a [`DiskFile`]. The
//! pool is **steal-with-WAL-rule**: a dirty frame may be written back and
//! evicted at any time, provided the WAL is first flushed through the
//! frame's page LSN (WAL-before-data). Every update and delete logs a
//! full before-image, so undo of an in-flight transaction whose dirty
//! page was stolen is replayed from the log like any other — which is
//! what finally bounds the pool at its configured capacity under
//! write-heavy trigger firing. A pool with no WAL attached (volatile
//! engines, unit tests) falls back to the historical no-steal behaviour:
//! dirty frames are never evicted and the shard grows instead.
//!
//! Each frame keeps a *recovery LSN* (`rec_lsn`): the WAL end sampled
//! just before the frame's clean→dirty transition, i.e. a lower bound on
//! the first log record that dirtied it. The table of `(page, rec_lsn)`
//! pairs over all dirty frames is the dirty-page table a fuzzy
//! checkpoint logs, and `min(rec_lsn)` is the horizon the log can be
//! truncated behind.
//!
//! ## Eviction policy
//!
//! Replacement is GCLOCK — second-chance clock generalised to a
//! saturating reference *counter* (0..=3) per frame, incremented on hit
//! and decremented as the hand sweeps. A one-touch scan page peaks at
//! counter 1 and is reclaimed after one sweep, while the trigger
//!-descriptor working set (hit repeatedly, pinned near 3) survives a
//! larger-than-RAM scan — the scan resistance plain second-chance lacks.
//! The first frame the hand reaches at counter zero is the victim, clean
//! or dirty: a clean one is dropped, a dirty one is stolen under the WAL
//! rule. Cleanliness does not buy a frame another lap. Trigger processing
//! turns reads into writes, so under a spilling trigger workload nearly
//! every frame is dirty, and a search for a *clean* zero-count frame
//! would decay the whole clock on every miss and degrade GCLOCK to FIFO.
//! A pool with no WAL passes over dirty frames and, after one bounded
//! sweep with no clean victim, grows.
//!
//! ## Partitioning
//!
//! The frame table is partitioned into a power-of-two number of shards by
//! page id, each with its own mutex, clock hand, and share of the
//! capacity, so concurrent pins on unrelated pages stop funnelling through
//! one process-wide mutex (`StorageOptions::shards`; `1` reproduces the
//! original single-mutex pool). The shard count is clamped to the frame
//! capacity so tiny pools keep their configured residency bound, and the
//! capacity is split evenly (minimum one frame per shard). Clock
//! replacement runs independently per shard — eviction quality is
//! unchanged because a page's shard is fixed, so each shard sees a
//! consistent sub-stream of accesses. Checkpoint flushing iterates every
//! shard but still writes pages in globally sorted order for sequential
//! I/O.

use crate::disk::DiskFile;
use crate::error::Result;
use crate::oid::PageId;
use crate::page::Page;
use crate::wal::Wal;
use ode_obs::{Metrics, TraceEvent};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default number of buffer-pool shards (clamped to the frame capacity).
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Saturation point of a frame's GCLOCK reference counter.
const MAX_REF: u8 = 3;

struct Frame {
    page: Page,
    dirty: bool,
    /// WAL end LSN sampled at this frame's clean→dirty transition: a
    /// lower bound on the first record that dirtied it. Meaningless while
    /// clean.
    rec_lsn: u64,
    /// GCLOCK reference counter (0..=[`MAX_REF`]).
    refbits: u8,
}

struct PoolInner {
    frames: HashMap<PageId, Frame>,
    /// Clock hand order (page ids, may contain stale entries lazily pruned).
    clock: Vec<PageId>,
    hand: usize,
    hits: u64,
    misses: u64,
    /// Clean frames evicted from this shard.
    evictions: u64,
    /// Dirty frames stolen (flushed WAL-first, then evicted) from this shard.
    steals: u64,
}

/// GCLOCK buffer pool with steal-with-WAL-rule write-back, partitioned by
/// page id.
pub struct BufferPool {
    disk: DiskFile,
    /// Soft frame limit per shard (see module docs).
    shard_capacity: usize,
    shards: Box<[Mutex<PoolInner>]>,
    /// `shards.len() - 1`; shard count is always a power of two.
    mask: usize,
    /// The log that must be flushed through a dirty frame's page LSN
    /// before the frame can be written back. `None` ⇒ no-steal.
    wal: Option<Arc<Wal>>,
    /// Pool-wide resident/dirty frame counts, mirrored into the
    /// `buf_resident_pages` / `buf_dirty_pages` gauges on every change.
    resident: AtomicU64,
    dirty: AtomicU64,
    metrics: Arc<Metrics>,
}

/// Cache statistics, exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from the cache.
    pub hits: u64,
    /// Page requests that had to read the data file.
    pub misses: u64,
    /// Frames currently resident.
    pub resident: usize,
    /// Resident frames that are dirty.
    pub dirty: usize,
    /// Clean frames evicted across all shards.
    pub evictions: u64,
    /// Dirty frames stolen (WAL-first flush + evict) across all shards.
    pub steals: u64,
}

/// Per-shard slice of [`PoolStats`] (same fields, one shard's share).
pub type ShardStats = PoolStats;

impl BufferPool {
    /// Wrap a disk file with a pool of at most `capacity` frames
    /// (soft limit; see module docs) split over the default shard count.
    pub fn new(disk: DiskFile, capacity: usize) -> BufferPool {
        BufferPool::with_shards(disk, capacity, DEFAULT_POOL_SHARDS)
    }

    /// Like [`BufferPool::new`] with an explicit shard count. The count is
    /// rounded to a power of two and clamped to `capacity` (so sharding
    /// never raises the residency bound); `1` reproduces the
    /// pre-partitioning single-mutex pool.
    pub fn with_shards(disk: DiskFile, capacity: usize, shards: usize) -> BufferPool {
        let capacity = capacity.max(1);
        let mut n = shards.clamp(1, capacity).next_power_of_two();
        if n > capacity {
            n /= 2;
        }
        BufferPool {
            disk,
            shard_capacity: (capacity / n).max(1),
            shards: (0..n)
                .map(|_| {
                    Mutex::new(PoolInner {
                        frames: HashMap::new(),
                        clock: Vec::new(),
                        hand: 0,
                        hits: 0,
                        misses: 0,
                        evictions: 0,
                        steals: 0,
                    })
                })
                .collect(),
            mask: n - 1,
            wal: None,
            resident: AtomicU64::new(0),
            dirty: AtomicU64::new(0),
            metrics: Arc::new(Metrics::new()),
        }
    }

    /// Replace the metrics registry (done once at storage assembly so the
    /// pool shares the database-wide registry).
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = metrics;
    }

    /// Attach the WAL whose flush gate enables stealing dirty frames
    /// (done once at storage assembly). Without this the pool is no-steal.
    pub fn attach_wal(&mut self, wal: Arc<Wal>) {
        self.wal = Some(wal);
    }

    /// The underlying disk file.
    pub fn disk(&self) -> &DiskFile {
        &self.disk
    }

    /// Number of shards the frame table is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total frame capacity (shards × per-shard share).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    fn note_resident(&self, delta: i64) {
        let v = if delta >= 0 {
            self.resident.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
        } else {
            self.resident.fetch_sub((-delta) as u64, Ordering::Relaxed) - (-delta) as u64
        };
        self.metrics.buf_resident_pages.set(v);
    }

    fn note_dirty(&self, delta: i64) {
        let v = if delta >= 0 {
            self.dirty.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
        } else {
            self.dirty.fetch_sub((-delta) as u64, Ordering::Relaxed) - (-delta) as u64
        };
        self.metrics.buf_dirty_pages.set(v);
    }

    /// Lock one shard, counting contended acquisitions into the registry.
    fn lock_shard(&self, id: PageId) -> MutexGuard<'_, PoolInner> {
        let shard = &self.shards[(id as usize) & self.mask];
        match shard.try_lock() {
            Some(guard) => guard,
            None => {
                self.metrics.buf_shard_contention.inc();
                let started = Instant::now();
                let guard = shard.lock();
                self.metrics
                    .shard_acquire_nanos
                    .record(started.elapsed().as_nanos() as u64);
                guard
            }
        }
    }

    fn load_locked(&self, inner: &mut PoolInner, id: PageId) -> Result<()> {
        if let Some(frame) = inner.frames.get_mut(&id) {
            frame.refbits = (frame.refbits + 1).min(MAX_REF);
            inner.hits += 1;
            self.metrics.buf_hits.inc();
            return Ok(());
        }
        inner.misses += 1;
        self.metrics.buf_misses.inc();
        if inner.frames.len() >= self.shard_capacity {
            self.evict_one(inner)?;
        }
        let page = self.disk.read_page(id)?;
        inner.frames.insert(
            id,
            Frame {
                page,
                dirty: false,
                rec_lsn: 0,
                refbits: 1,
            },
        );
        inner.clock.push(id);
        self.note_resident(1);
        Ok(())
    }

    /// Make room for one frame. The hand sweeps, decrementing reference
    /// counts, and the first frame it reaches at count zero is the
    /// victim: a clean one is dropped; a dirty one is *stolen* — WAL
    /// flushed through its page LSN, image written back (journaled),
    /// frame dropped. With no WAL the sweep passes over dirty frames and,
    /// finding no clean victim, lets the shard grow (no-steal).
    fn evict_one(&self, inner: &mut PoolInner) -> Result<()> {
        // Enough steps for a saturated reference counter to decay to
        // zero, plus the finding sweep.
        let max_steps = inner
            .clock
            .len()
            .saturating_mul(MAX_REF as usize + 1)
            .max(1);
        let mut steps = 0;
        let idx = loop {
            if inner.clock.is_empty() || steps >= max_steps {
                return Ok(());
            }
            let idx = inner.hand % inner.clock.len();
            let id = inner.clock[idx];
            let Some(frame) = inner.frames.get_mut(&id) else {
                // Stale clock entry; prune without advancing the hand.
                inner.clock.swap_remove(idx);
                continue;
            };
            if frame.refbits > 0 {
                frame.refbits -= 1;
            } else if !frame.dirty || self.wal.is_some() {
                break idx;
            }
            inner.hand = idx + 1;
            steps += 1;
        };
        let victim = inner.clock[idx];
        let frame = &inner.frames[&victim];
        if frame.dirty {
            let wal = self.wal.as_ref().expect("dirty victims need a WAL");
            let t0 = Instant::now();
            // WAL-before-data: the log must cover the page's last change
            // before the image may overwrite the on-disk copy.
            wal.flush_through(frame.page.lsn())?;
            self.disk.write_page(victim, &frame.page)?;
            inner.steals += 1;
            self.note_dirty(-1);
            self.metrics.pages_stolen.inc();
            self.metrics
                .evict_flush_micros
                .record(t0.elapsed().as_micros() as u64);
        } else {
            inner.evictions += 1;
            self.metrics.buf_evictions.inc();
        }
        inner.frames.remove(&victim);
        inner.clock.swap_remove(idx);
        self.note_resident(-1);
        self.metrics
            .emit(|| TraceEvent::BufferEviction { page: victim });
        Ok(())
    }

    /// Read access to a page.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let mut inner = self.lock_shard(id);
        self.load_locked(&mut inner, id)?;
        let frame = inner.frames.get_mut(&id).expect("just loaded");
        Ok(f(&frame.page))
    }

    /// Write access to a page; marks the frame dirty, recording the WAL
    /// end as its recovery LSN on the clean→dirty transition (sampled
    /// *before* the closure appends the change's log records, so it lower-
    /// bounds them).
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        let mut inner = self.lock_shard(id);
        self.load_locked(&mut inner, id)?;
        let rec_lsn = match &self.wal {
            Some(wal) => wal.end_lsn(),
            None => 0,
        };
        let frame = inner.frames.get_mut(&id).expect("just loaded");
        if !frame.dirty {
            frame.dirty = true;
            frame.rec_lsn = rec_lsn;
            self.note_dirty(1);
        }
        Ok(f(&mut frame.page))
    }

    /// Allocate a fresh page on disk and cache it.
    pub fn allocate_page(&self) -> Result<PageId> {
        let id = self.disk.allocate_page()?;
        let mut inner = self.lock_shard(id);
        if inner.frames.len() >= self.shard_capacity {
            self.evict_one(&mut inner)?;
        }
        inner.frames.insert(
            id,
            Frame {
                page: Page::new(),
                dirty: false,
                rec_lsn: 0,
                refbits: 1,
            },
        );
        inner.clock.push(id);
        self.note_resident(1);
        Ok(id)
    }

    /// Number of pages (including the header page).
    pub fn page_count(&self) -> u32 {
        self.disk.page_count()
    }

    /// The dirty-page table: `(page, rec_lsn)` for every dirty frame —
    /// what a fuzzy checkpoint's BeginCheckpoint record carries.
    pub fn dirty_page_table(&self) -> Vec<(PageId, u64)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let inner = shard.lock();
            out.extend(
                inner
                    .frames
                    .iter()
                    .filter(|(_, fr)| fr.dirty)
                    .map(|(&id, fr)| (id, fr.rec_lsn)),
            );
        }
        out
    }

    /// Minimum recovery LSN over all dirty frames (`None` when clean) —
    /// the dirty-page component of the log-truncation horizon.
    pub fn min_rec_lsn(&self) -> Option<u64> {
        self.dirty_page_table()
            .into_iter()
            .map(|(_, lsn)| lsn)
            .min()
    }

    /// Write one page back if (still) dirty, honouring WAL-before-data,
    /// and mark it clean — the fuzzy checkpointer's per-page flush. The
    /// shard stays locked across the WAL flush and the write so no
    /// concurrent mutation or steal can interleave with the copy-out.
    /// Returns whether a write happened.
    pub fn flush_page(&self, id: PageId) -> Result<bool> {
        let mut inner = self.lock_shard(id);
        let frame = match inner.frames.get_mut(&id) {
            Some(frame) if frame.dirty => frame,
            _ => return Ok(false),
        };
        if let Some(wal) = &self.wal {
            wal.flush_through(frame.page.lsn())?;
        }
        self.disk.write_page(id, &frame.page)?;
        frame.dirty = false;
        self.note_dirty(-1);
        Ok(true)
    }

    /// Write every dirty frame back to the data file (quiesced-checkpoint
    /// helper). Returns the number of pages written. Pages are written in
    /// globally sorted order for sequential I/O.
    pub fn flush_all(&self) -> Result<usize> {
        let mut ids: Vec<PageId> = Vec::new();
        for shard in self.shards.iter() {
            let inner = shard.lock();
            ids.extend(
                inner
                    .frames
                    .iter()
                    .filter(|(_, fr)| fr.dirty)
                    .map(|(id, _)| *id),
            );
        }
        ids.sort_unstable();
        let mut written = 0;
        for id in ids {
            if self.flush_page(id)? {
                written += 1;
            }
        }
        Ok(written)
    }

    /// Flush OS buffers for the data file.
    pub fn sync(&self) -> Result<()> {
        self.disk.sync()
    }

    /// Cache statistics snapshot (shard-at-a-time; totals are exact when
    /// quiesced, monotone approximations under concurrency).
    pub fn stats(&self) -> PoolStats {
        let mut stats = PoolStats {
            hits: 0,
            misses: 0,
            resident: 0,
            dirty: 0,
            evictions: 0,
            steals: 0,
        };
        for shard in self.shards.iter() {
            let inner = shard.lock();
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.resident += inner.frames.len();
            stats.dirty += inner.frames.values().filter(|f| f.dirty).count();
            stats.evictions += inner.evictions;
            stats.steals += inner.steals;
        }
        stats
    }

    /// Per-shard statistics, in shard order — makes an eviction/steal
    /// imbalance across shards visible.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| {
                let inner = shard.lock();
                ShardStats {
                    hits: inner.hits,
                    misses: inner.misses,
                    resident: inner.frames.len(),
                    dirty: inner.frames.values().filter(|f| f.dirty).count(),
                    evictions: inner.evictions,
                    steals: inner.steals,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_testutil::TempDir;

    fn pool(capacity: usize) -> (TempDir, BufferPool) {
        let dir = TempDir::new("pool");
        let disk = DiskFile::create(&dir.file("db")).unwrap();
        (dir, BufferPool::new(disk, capacity))
    }

    /// A pool with a (record-less) WAL attached, i.e. steal enabled.
    fn steal_pool(capacity: usize) -> (TempDir, BufferPool) {
        let dir = TempDir::new("pool");
        let disk = DiskFile::create(&dir.file("db")).unwrap();
        let wal = Arc::new(Wal::open(&dir.file("wal"), false).unwrap());
        let mut pool = BufferPool::new(disk, capacity);
        pool.attach_wal(wal);
        (dir, pool)
    }

    #[test]
    fn shard_count_clamps_to_capacity() {
        let dir = TempDir::new("pool");
        let disk = DiskFile::create(&dir.file("db")).unwrap();
        // Tiny pool: sharding must not raise the residency bound.
        let p = BufferPool::new(disk, 2);
        assert_eq!(p.shard_count(), 2);
        let disk = DiskFile::create(&dir.file("db2")).unwrap();
        let p = BufferPool::with_shards(disk, 256, 1);
        assert_eq!(p.shard_count(), 1);
        let disk = DiskFile::create(&dir.file("db3")).unwrap();
        let p = BufferPool::with_shards(disk, 256, 6);
        assert_eq!(p.shard_count(), 8, "rounds to a power of two");
        let disk = DiskFile::create(&dir.file("db4")).unwrap();
        let p = BufferPool::with_shards(disk, 6, 6);
        assert_eq!(p.shard_count(), 4, "power of two within capacity");
    }

    #[test]
    fn read_through_and_cache_hit() {
        let (_d, pool) = pool(4);
        let id = pool.allocate_page().unwrap();
        pool.with_page_mut(id, |p| {
            p.insert(b"cached").unwrap();
        })
        .unwrap();
        let data = pool.with_page(id, |p| p.read(0).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"cached");
        let s = pool.stats();
        assert!(s.hits >= 1);
    }

    #[test]
    fn dirty_pages_survive_eviction_pressure() {
        // A pool with no WAL attached must keep the historical no-steal
        // guarantee: dirty frames are never written back or dropped.
        let (_d, pool) = pool(2);
        let mut ids = Vec::new();
        for i in 0..10u8 {
            let id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |p| {
                p.insert(&[i; 8]).unwrap();
            })
            .unwrap();
            ids.push(id);
        }
        // All ten frames are dirty; no-steal means all stay resident even
        // though capacity is 2, and none were written to disk.
        assert_eq!(pool.stats().resident, 10);
        assert_eq!(pool.stats().dirty, 10);
        for (i, id) in ids.iter().enumerate() {
            let v = pool
                .with_page(*id, |p| p.read(0).unwrap().to_vec())
                .unwrap();
            assert_eq!(v, vec![i as u8; 8]);
        }
        // Disk still has the pristine pages (never stolen).
        let on_disk = pool.disk().read_page(ids[0]).unwrap();
        assert!(on_disk.read(0).is_none());
    }

    #[test]
    fn steal_bounds_residency_and_preserves_data() {
        // Satellite: once steal lands, resident pages never exceed the
        // configured capacity, even with every frame dirty.
        let (_d, pool) = steal_pool(2);
        let mut ids = Vec::new();
        for i in 0..10u8 {
            let id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |p| {
                p.insert(&[i; 8]).unwrap();
            })
            .unwrap();
            ids.push(id);
            assert!(
                pool.stats().resident <= pool.capacity(),
                "resident={} capacity={}",
                pool.stats().resident,
                pool.capacity()
            );
        }
        let s = pool.stats();
        assert!(s.steals > 0, "dirty frames must have been stolen");
        // Stolen pages read back their stolen images from disk.
        for (i, id) in ids.iter().enumerate() {
            let v = pool
                .with_page(*id, |p| p.read(0).unwrap().to_vec())
                .unwrap();
            assert_eq!(v, vec![i as u8; 8]);
        }
    }

    #[test]
    fn gclock_keeps_hot_pages_through_a_scan() {
        // Scan resistance: a page hit repeatedly (refbits saturated) must
        // survive a one-touch scan several times the pool size.
        let dir = TempDir::new("pool");
        let disk = DiskFile::create(&dir.file("db")).unwrap();
        let wal = Arc::new(Wal::open(&dir.file("wal"), false).unwrap());
        let mut p = BufferPool::with_shards(disk, 8, 1);
        p.attach_wal(wal);
        let hot = p.allocate_page().unwrap();
        let scan: Vec<PageId> = (0..32).map(|_| p.allocate_page().unwrap()).collect();
        for &id in &scan {
            // Touch the hot page between every scan step.
            for _ in 0..2 {
                p.with_page(hot, |_| ()).unwrap();
            }
            p.with_page(id, |_| ()).unwrap();
        }
        let before = p.stats();
        // The hot page is still a cache hit after the whole scan.
        p.with_page(hot, |_| ()).unwrap();
        let after = p.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn gclock_keeps_hot_pages_through_a_dirty_scan() {
        // The same scan, but every scan page is written, as trigger
        // processing writes what it reads: a dirty frame at count zero is
        // stolen as soon as the hand reaches it, so the clean hot page is
        // not decayed and evicted for being the only clean frame.
        let dir = TempDir::new("pool");
        let disk = DiskFile::create(&dir.file("db")).unwrap();
        let wal = Arc::new(Wal::open(&dir.file("wal"), false).unwrap());
        let mut p = BufferPool::with_shards(disk, 8, 1);
        p.attach_wal(wal);
        let hot = p.allocate_page().unwrap();
        let scan: Vec<PageId> = (0..32).map(|_| p.allocate_page().unwrap()).collect();
        for (i, &id) in scan.iter().enumerate() {
            for _ in 0..2 {
                p.with_page(hot, |_| ()).unwrap();
            }
            p.with_page_mut(id, |pg| {
                pg.insert(&[i as u8; 8]).unwrap();
            })
            .unwrap();
        }
        let before = p.stats();
        assert!(before.steals > 0, "dirty scan pages must have been stolen");
        p.with_page(hot, |_| ()).unwrap();
        let after = p.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        // Stolen scan pages read back their written images.
        for (i, &id) in scan.iter().enumerate() {
            let v = p.with_page(id, |pg| pg.read(0).unwrap().to_vec()).unwrap();
            assert_eq!(v, vec![i as u8; 8]);
        }
    }

    #[test]
    fn pool_without_wal_never_evicts_a_dirty_frame() {
        // No WAL, no steal: a cold dirty frame the hand reaches at count
        // zero is passed over while clean scan frames are evicted round it.
        let dir = TempDir::new("pool");
        let disk = DiskFile::create(&dir.file("db")).unwrap();
        let p = BufferPool::with_shards(disk, 4, 1);
        let dirty = p.allocate_page().unwrap();
        p.with_page_mut(dirty, |pg| {
            pg.insert(b"unlogged").unwrap();
        })
        .unwrap();
        for _ in 0..32 {
            let id = p.allocate_page().unwrap();
            p.with_page(id, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.steals, 0);
        assert!(s.evictions > 0, "clean scan frames must have been evicted");
        assert!(s.resident <= p.capacity(), "resident={}", s.resident);
        let before = p.stats();
        let v = p
            .with_page(dirty, |pg| pg.read(0).unwrap().to_vec())
            .unwrap();
        assert_eq!(v, b"unlogged");
        assert_eq!(
            p.stats().misses,
            before.misses,
            "dirty frame stayed resident"
        );
        // Never written back either.
        assert!(p.disk().read_page(dirty).unwrap().read(0).is_none());
    }

    #[test]
    fn dirty_page_table_tracks_rec_lsns() {
        let (_d, pool) = steal_pool(8);
        assert!(pool.min_rec_lsn().is_none());
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |p| {
            p.insert(b"a").unwrap();
        })
        .unwrap();
        pool.with_page_mut(b, |p| {
            p.insert(b"b").unwrap();
        })
        .unwrap();
        let mut dpt = pool.dirty_page_table();
        dpt.sort_unstable();
        assert_eq!(
            dpt.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![a, b]
        );
        assert!(pool.min_rec_lsn().is_some());
        // Flushing one page shrinks the table.
        assert!(pool.flush_page(a).unwrap());
        assert_eq!(pool.dirty_page_table().len(), 1);
        assert!(!pool.flush_page(a).unwrap(), "already clean");
    }

    #[test]
    fn clean_pages_get_evicted() {
        let (_d, pool) = pool(2);
        let mut ids = Vec::new();
        for i in 0..6u8 {
            let id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |p| {
                p.insert(&[i; 8]).unwrap();
            })
            .unwrap();
            ids.push(id);
        }
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().dirty, 0);
        // New allocations now find clean victims, keeping residency bounded.
        for _ in 0..6 {
            pool.allocate_page().unwrap();
        }
        assert!(
            pool.stats().resident <= 7,
            "resident={}",
            pool.stats().resident
        );
        // Evicted pages are still readable (reloaded from disk).
        for (i, id) in ids.iter().enumerate() {
            let v = pool
                .with_page(*id, |p| p.read(0).unwrap().to_vec())
                .unwrap();
            assert_eq!(v, vec![i as u8; 8]);
        }
    }

    #[test]
    fn flush_all_persists() {
        let dir = TempDir::new("pool");
        let path = dir.file("db");
        let id;
        {
            let disk = DiskFile::create(&path).unwrap();
            let pool = BufferPool::new(disk, 4);
            id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |p| {
                p.insert(b"durable").unwrap();
            })
            .unwrap();
            pool.flush_all().unwrap();
            let mut h = pool.disk().read_header().unwrap();
            h.page_count = pool.page_count();
            pool.disk().write_header(h).unwrap();
        }
        let disk = DiskFile::open(&path).unwrap();
        let page = disk.read_page(id).unwrap();
        assert_eq!(page.read(0).unwrap(), b"durable");
    }

    #[test]
    fn sharded_pool_keeps_pages_isolated() {
        // Many pages across all shards: every page reads back its own
        // bytes and the hit counters aggregate across shards.
        let (_d, pool) = pool(64);
        assert!(pool.shard_count() > 1);
        let mut ids = Vec::new();
        for i in 0..32u8 {
            let id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |p| {
                p.insert(&[i; 16]).unwrap();
            })
            .unwrap();
            ids.push(id);
        }
        for (i, id) in ids.iter().enumerate() {
            let v = pool
                .with_page(*id, |p| p.read(0).unwrap().to_vec())
                .unwrap();
            assert_eq!(v, vec![i as u8; 16]);
        }
        let s = pool.stats();
        assert_eq!(s.resident, 32);
        assert!(s.hits >= 32);
    }

    #[test]
    fn clean_pages_bounded_under_sharding() {
        // With a sharded pool and clean pages, residency stays within
        // one frame of capacity per shard.
        let (_d, pool) = pool(8);
        let shards = pool.shard_count();
        for _ in 0..64 {
            let id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |p| {
                p.insert(b"x").unwrap();
            })
            .unwrap();
            pool.flush_all().unwrap();
        }
        assert!(
            pool.stats().resident <= 8 + shards,
            "resident={} shards={}",
            pool.stats().resident,
            shards
        );
    }

    #[test]
    fn per_shard_stats_sum_to_totals() {
        let (_d, pool) = steal_pool(4);
        for i in 0..16u8 {
            let id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |p| {
                p.insert(&[i; 4]).unwrap();
            })
            .unwrap();
        }
        let total = pool.stats();
        let shards = pool.shard_stats();
        assert_eq!(shards.len(), pool.shard_count());
        assert_eq!(shards.iter().map(|s| s.steals).sum::<u64>(), total.steals);
        assert_eq!(
            shards.iter().map(|s| s.resident).sum::<usize>(),
            total.resident
        );
    }
}
