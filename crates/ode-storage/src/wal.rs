//! Write-ahead log for the disk engine.
//!
//! Logging is *physiological*: records describe cell-level operations
//! (insert/update/delete of a slot on a page) tagged with the transaction
//! that performed them; updates and deletes also carry the cell's
//! before-image. The buffer pool *steals* (a dirty frame may be written
//! back once the log is flushed through its page LSN) and checkpoints
//! are *fuzzy* (`BeginCheckpoint`/`EndCheckpoint` bracket a concurrent
//! flush of the sampled dirty page table), so recovery *repeats history*
//! (ARIES-style) with per-page LSN gating: starting from the last
//! checkpoint's redo point, every logged cell operation — including
//! abort-time rollback steps, which are logged as ordinary records in
//! compensation-log style — is reapplied in log order *iff* the page's
//! stamped LSN shows it has not already absorbed the change, and
//! transactions that were still in flight at the crash are then aborted
//! like live ones, from undo lists rebuilt out of the before-images, with
//! every rollback step logged again. Aborted transactions need no extra work:
//! their rollback is itself in the log, which is how "actions of aborted
//! transactions are rolled back, \[and\] so are their associated events"
//! (§5.5) — trigger state lives in ordinary records, so its rollback
//! rides the same mechanism.
//!
//! The file starts with a 16-byte header: an 8-byte magic plus the
//! `base_lsn` — the LSN of the first byte stored after the header. Frames
//! follow: `[len u32][checksum u32][payload]`, FNV-1a but for a page
//! image (see `checksum`). A torn tail (short frame or bad checksum) ends
//! replay; everything before it is used, and [`Wal::open`] *truncates*
//! the tear so fresh appends can never land behind unreachable garbage.
//!
//! An append copies a record's bytes once: the record is encoded straight
//! into the in-memory tail behind a placeholder frame header, which is
//! then filled in with the payload's length and its checksum, computed
//! over the bytes just written. Cell images travel as borrowed slices
//! ([`LogRecord`]'s byte fields are `Cow`s), so the caller hands the log
//! the bytes it already holds; only decoding owns them.
//!
//! ## Full-page images
//!
//! The WAL is the only repair for a torn page write. The first logged
//! change to a page stamped at or below the *redo point* (the start of
//! the last `BeginCheckpoint`, or the log end at open and at
//! [`Wal::reset`]) is followed by a [`LogRecord::PageImage`] carrying
//! the page's after-image ([`Wal::append_change`]), so every page an
//! in-place write could tear has an image inside the redo range of any
//! checkpoint recovery may start from.
//!
//! ## LSNs and group commit
//!
//! Every append is assigned a monotonically increasing LSN (the byte
//! offset of the record's *end* in the logical log; the clock keeps
//! running across [`Wal::reset`], [`Wal::truncate_prefix`], and — because
//! `base_lsn` is persisted in the header — across reopens). A record is
//! durable once the
//! `flushed_lsn` watermark reaches its LSN. Committers call
//! [`Wal::commit_wait`] with their Commit record's LSN: the first one in
//! becomes the *leader*, takes the whole pending tail, and makes it
//! durable with a single write+fsync while followers block on the
//! watermark via condvar — one fsync amortised over every commit in the
//! batch. A committer that finds no flush in progress leads its own.
//!
//! A failed WAL write or fsync *poisons* the log: the batch may be torn on
//! disk, so no later commit can be allowed to succeed (fsyncgate
//! semantics). Every subsequent `commit_wait` returns
//! [`StorageError::WalPoisoned`]; the only way forward is reopen +
//! recovery, which truncates the tear.

use crate::codec::{decode_bytes, encode_bytes, Decode, Encode};
use crate::error::{Result, StorageError};
use crate::fault::{FaultFile, FaultInjector};
use crate::oid::{ClusterId, PageId};
use crate::page::{Page, PAGE_SIZE};
use bytes::{BufMut, BytesMut};
use ode_obs::{FlightEvent, Metrics};
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
use std::io::{Read, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// One log record. Its cell images borrow the caller's bytes when it is
/// appended and own them when it is decoded (`LogRecord<'static>`).
#[allow(missing_docs)] // fields are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord<'a> {
    /// A transaction started.
    Begin { txn: u64 },
    /// A cell was inserted at (page, slot) with the given bytes.
    CellInsert {
        txn: u64,
        page: PageId,
        slot: u16,
        data: Cow<'a, [u8]>,
    },
    /// The cell at (page, slot) was overwritten with `data`; `before` is
    /// the cell's previous bytes, used to roll back transactions that
    /// were still in flight at a crash.
    CellUpdate {
        txn: u64,
        page: PageId,
        slot: u16,
        data: Cow<'a, [u8]>,
        before: Cow<'a, [u8]>,
    },
    /// The cell at (page, slot) was deleted; `before` is the deleted
    /// cell's bytes, used to roll back in-flight transactions at a crash.
    CellDelete {
        txn: u64,
        page: PageId,
        slot: u16,
        before: Cow<'a, [u8]>,
    },
    /// A fresh page was allocated and assigned to a cluster.
    PageAlloc {
        txn: u64,
        page: PageId,
        cluster: ClusterId,
    },
    /// The transaction committed (durable once this record is on disk).
    Commit { txn: u64 },
    /// The transaction aborted. Its rollback steps were logged as
    /// ordinary cell records before this, so recovery just repeats them;
    /// the Abort marks that no further rollback is needed for the txn.
    Abort { txn: u64 },
    /// A fuzzy checkpoint started. A pure position marker: the dirty-page
    /// and active-transaction tables are sampled *after* this record is
    /// appended (and carried by the matching [`LogRecord::EndCheckpoint`]),
    /// so any page dirtied or transaction begun too late to be sampled
    /// necessarily logs at an LSN past this marker — which is why redo may
    /// start at `min(marker, tables' minima)` without missing anything.
    BeginCheckpoint,
    /// The fuzzy checkpoint whose Begin marker *ends* at `begin_lsn`
    /// completed: every page in `dirty` as sampled at begin has been
    /// written back to the data file (WAL-before-data respected). `dirty`
    /// holds (page id, recovery LSN) for pages dirty at the sample;
    /// `active` holds (txn id, first LSN) for transactions that had logged
    /// at the sample.
    EndCheckpoint {
        begin_lsn: u64,
        dirty: Vec<(PageId, u64)>,
        active: Vec<(u64, u64)>,
    },
    /// The whole page as it stood after the change logged just before
    /// this record (see [`Wal::append_change`]). Recovery restores it
    /// whatever the page on disk holds: a torn page's LSN is garbage.
    PageImage { page: PageId, image: Cow<'a, [u8]> },
}

const TAG_BEGIN: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_DELETE: u8 = 4;
const TAG_PAGE_ALLOC: u8 = 5;
const TAG_COMMIT: u8 = 6;
const TAG_ABORT: u8 = 7;
const TAG_BEGIN_CKPT: u8 = 8;
const TAG_END_CKPT: u8 = 9;
const TAG_PAGE_IMAGE: u8 = 10;

impl LogRecord<'_> {
    /// The transaction the record belongs to. Checkpoint records belong
    /// to no transaction and return 0 (never a real txn id).
    pub fn txn(&self) -> u64 {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::CellInsert { txn, .. }
            | LogRecord::CellUpdate { txn, .. }
            | LogRecord::CellDelete { txn, .. }
            | LogRecord::PageAlloc { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => *txn,
            LogRecord::BeginCheckpoint
            | LogRecord::EndCheckpoint { .. }
            | LogRecord::PageImage { .. } => 0,
        }
    }

    /// The page the record changes, if it changes one.
    pub fn page(&self) -> Option<PageId> {
        match self {
            LogRecord::CellInsert { page, .. }
            | LogRecord::CellUpdate { page, .. }
            | LogRecord::CellDelete { page, .. }
            | LogRecord::PageAlloc { page, .. }
            | LogRecord::PageImage { page, .. } => Some(*page),
            _ => None,
        }
    }
}

impl Encode for LogRecord<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            LogRecord::Begin { txn } => {
                buf.put_u8(TAG_BEGIN);
                txn.encode(buf);
            }
            LogRecord::CellInsert {
                txn,
                page,
                slot,
                data,
            } => {
                buf.put_u8(TAG_INSERT);
                txn.encode(buf);
                page.encode(buf);
                slot.encode(buf);
                encode_bytes(data, buf);
            }
            LogRecord::CellUpdate {
                txn,
                page,
                slot,
                data,
                before,
            } => {
                buf.put_u8(TAG_UPDATE);
                txn.encode(buf);
                page.encode(buf);
                slot.encode(buf);
                encode_bytes(data, buf);
                encode_bytes(before, buf);
            }
            LogRecord::CellDelete {
                txn,
                page,
                slot,
                before,
            } => {
                buf.put_u8(TAG_DELETE);
                txn.encode(buf);
                page.encode(buf);
                slot.encode(buf);
                encode_bytes(before, buf);
            }
            LogRecord::PageAlloc { txn, page, cluster } => {
                buf.put_u8(TAG_PAGE_ALLOC);
                txn.encode(buf);
                page.encode(buf);
                cluster.encode(buf);
            }
            LogRecord::Commit { txn } => {
                buf.put_u8(TAG_COMMIT);
                txn.encode(buf);
            }
            LogRecord::Abort { txn } => {
                buf.put_u8(TAG_ABORT);
                txn.encode(buf);
            }
            LogRecord::BeginCheckpoint => {
                buf.put_u8(TAG_BEGIN_CKPT);
            }
            LogRecord::EndCheckpoint {
                begin_lsn,
                dirty,
                active,
            } => {
                buf.put_u8(TAG_END_CKPT);
                begin_lsn.encode(buf);
                dirty.encode(buf);
                active.encode(buf);
            }
            LogRecord::PageImage { page, image } => {
                buf.put_u8(TAG_PAGE_IMAGE);
                page.encode(buf);
                encode_bytes(image, buf);
            }
        }
    }
}

/// Decode a cell image into an owned `Cow`.
fn decode_image(buf: &mut &[u8]) -> Result<Cow<'static, [u8]>> {
    decode_bytes(buf).map(|bytes| Cow::Owned(bytes.to_vec()))
}

impl Decode for LogRecord<'static> {
    fn decode(buf: &mut &[u8]) -> Result<LogRecord<'static>> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            TAG_BEGIN => LogRecord::Begin {
                txn: u64::decode(buf)?,
            },
            TAG_INSERT => LogRecord::CellInsert {
                txn: u64::decode(buf)?,
                page: PageId::decode(buf)?,
                slot: u16::decode(buf)?,
                data: decode_image(buf)?,
            },
            TAG_UPDATE => LogRecord::CellUpdate {
                txn: u64::decode(buf)?,
                page: PageId::decode(buf)?,
                slot: u16::decode(buf)?,
                data: decode_image(buf)?,
                before: decode_image(buf)?,
            },
            TAG_DELETE => LogRecord::CellDelete {
                txn: u64::decode(buf)?,
                page: PageId::decode(buf)?,
                slot: u16::decode(buf)?,
                before: decode_image(buf)?,
            },
            TAG_PAGE_ALLOC => LogRecord::PageAlloc {
                txn: u64::decode(buf)?,
                page: PageId::decode(buf)?,
                cluster: ClusterId::decode(buf)?,
            },
            TAG_COMMIT => LogRecord::Commit {
                txn: u64::decode(buf)?,
            },
            TAG_ABORT => LogRecord::Abort {
                txn: u64::decode(buf)?,
            },
            TAG_BEGIN_CKPT => LogRecord::BeginCheckpoint,
            TAG_END_CKPT => LogRecord::EndCheckpoint {
                begin_lsn: u64::decode(buf)?,
                dirty: Vec::<(PageId, u64)>::decode(buf)?,
                active: Vec::<(u64, u64)>::decode(buf)?,
            },
            TAG_PAGE_IMAGE => {
                let page = PageId::decode(buf)?;
                let image = decode_image(buf)?;
                if image.len() != PAGE_SIZE {
                    return Err(StorageError::Codec(format!(
                        "page image of {} bytes",
                        image.len()
                    )));
                }
                LogRecord::PageImage { page, image }
            }
            t => return Err(StorageError::Codec(format!("bad log record tag {t}"))),
        })
    }
}

/// FNV-1a, the checksum of every log frame but a page image's (the data
/// file's header slots use it too).
pub(crate) fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The checksum a frame carries: FNV-1a over the payload, except for a
/// page image, whose 4 KiB would cost FNV-1a's byte-serial multiply chain
/// about 6 µs under the page latch. An image is summed with four
/// independent multiply-rotate lanes over its `u64` words, the first
/// seeded with FNV-1a of the record's head (tag, page id, length). Each
/// lane step is a bijection of the lane and of the word, so images that
/// differ in any word leave some lane different; only the final fold to
/// 32 bits can collide, about 2^-32.
fn checksum(payload: &[u8]) -> u32 {
    const HEAD: usize = 9;
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let image = match payload.get(HEAD..) {
        Some(image) if payload[0] == TAG_PAGE_IMAGE && image.len() % 32 == 0 => image,
        _ => return fnv1a(payload),
    };
    let mut lanes = [
        u64::from(fnv1a(&payload[..HEAD])),
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    for block in image.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
            *lane = ((*lane ^ word).wrapping_mul(K)).rotate_left(29);
        }
    }
    let h =
        lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48);
    (h ^ (h >> 32)) as u32
}

/// Magic prefix of the 16-byte WAL file header.
const WAL_MAGIC: &[u8; 8] = b"ODEWAL\0\x01";

/// Bytes of file header before the first frame: magic + `base_lsn` (LE).
pub(crate) const WAL_HEADER: u64 = 16;

/// Largest flush buffer kept for reuse: a one-off bulk batch gives its
/// memory back instead of pinning it.
const MAX_SPARE: usize = 64 << 10;

fn encode_header(base_lsn: u64) -> [u8; WAL_HEADER as usize] {
    let mut h = [0u8; WAL_HEADER as usize];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..].copy_from_slice(&base_lsn.to_le_bytes());
    h
}

/// Parse a WAL image's header: `Some(base_lsn)` if the magic matches, else
/// `None` (an empty, torn-header, or pre-header file — treated as empty).
fn decode_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < WAL_HEADER as usize || &bytes[..8] != WAL_MAGIC {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

/// In-memory tail of the log: bytes appended but not yet written out.
struct WalTail {
    pending: BytesMut,
    /// Next log sequence number. LSNs are globally monotonic — they do NOT
    /// restart at [`Wal::reset`] — so a durability ticket taken before an
    /// auto-checkpoint is still satisfiable after it.
    next_lsn: u64,
    /// Commit records sitting in `pending` (feeds the group-size metric).
    pending_commits: u64,
    /// The redo point: a change to a page stamped at or below it logs the
    /// page's image (see the module docs).
    redo_lsn: u64,
}

/// Durability watermark + leader election for group commit.
struct FlushState {
    /// Every record with `lsn <= flushed_lsn` is durable (written, and
    /// fsynced when fsync is configured).
    flushed_lsn: u64,
    /// A committer is currently writing a batch; others wait on the condvar.
    leader_active: bool,
    /// The buffer the last batch was written from, emptied: the next
    /// leader swaps it in as the tail's `pending`, so the two buffers'
    /// capacity survives every flush.
    spare: BytesMut,
    /// Set on the first failed WAL write/fsync; sticky until reopen.
    poisoned: Option<String>,
}

/// An append-only write-ahead log with group commit.
pub struct Wal {
    path: PathBuf,
    tail: Mutex<WalTail>,
    file: Mutex<FaultFile>,
    flush: Mutex<FlushState>,
    durable: Condvar,
    /// LSN of the first byte stored after the file header (persisted
    /// there). Changes only under the flush+tail+file lock triplet
    /// ([`Wal::reset`] / [`Wal::truncate_prefix`]); reads are relaxed.
    base_lsn: std::sync::atomic::AtomicU64,
    /// Fault injector shared with the file handle, kept so the rewrites of
    /// [`Wal::reset`] and [`Wal::truncate_prefix`] meet the same faults.
    injector: Option<Arc<FaultInjector>>,
    /// Whether commit flushes call fsync. Off by default for tests/benches;
    /// on for durability-critical deployments.
    fsync: bool,
    metrics: Arc<Metrics>,
}

impl Wal {
    /// Open (creating if missing) the log at `path`.
    pub fn open(path: &Path, fsync: bool) -> Result<Wal> {
        Wal::open_with(path, fsync, None)
    }

    /// Open with an optional fault injector. A torn or corrupt tail left by a crash is truncated here so
    /// fresh appends can never land behind unreachable garbage.
    pub fn open_with(
        path: &Path,
        fsync: bool,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<Wal> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // Existing log contents are the recovery source: never clobber.
            .truncate(false)
            .open(path)?;
        let mut file = FaultFile::new(file, injector.clone());
        file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (base, valid) = match decode_header(&bytes) {
            Some(base) => {
                let valid = scan_valid_len(&bytes[WAL_HEADER as usize..]) as u64;
                if WAL_HEADER + valid < bytes.len() as u64 {
                    file.set_len(WAL_HEADER + valid)?;
                    if fsync {
                        file.sync_data()?;
                    }
                }
                (base, valid)
            }
            None => {
                // Empty file, or a header torn mid-create: nothing after
                // it can be a valid frame, so initialize a fresh log.
                file.set_len(0)?;
                file.write_all_at(&encode_header(0), 0)?;
                if fsync {
                    file.sync_data()?;
                }
                (0, 0)
            }
        };
        Ok(Wal {
            path: path.to_path_buf(),
            tail: Mutex::new(WalTail {
                pending: BytesMut::new(),
                next_lsn: base + valid,
                pending_commits: 0,
                redo_lsn: base + valid,
            }),
            file: Mutex::new(file),
            flush: Mutex::new(FlushState {
                flushed_lsn: base + valid,
                leader_active: false,
                spare: BytesMut::new(),
                poisoned: None,
            }),
            durable: Condvar::new(),
            base_lsn: std::sync::atomic::AtomicU64::new(base),
            injector,
            fsync,
            metrics: Arc::new(Metrics::new()),
        })
    }

    /// Replace the metrics registry (done once at storage assembly so the
    /// WAL shares the database-wide registry).
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = metrics;
    }

    /// Append a record to the in-memory tail; returns the LSN of the
    /// record's *end*. The record is durable once [`Wal::flushed_lsn`]
    /// reaches that value — see [`Wal::commit_wait`].
    pub fn append(&self, record: &LogRecord<'_>) -> u64 {
        self.append_span(record).1
    }

    /// [`Wal::append`] returning both the record's start LSN (where the
    /// frame begins) and its end LSN. The checkpointer needs the start:
    /// the log must never be truncated past where `BeginCheckpoint`
    /// *starts*, or recovery could no longer find the checkpoint.
    pub fn append_span(&self, record: &LogRecord<'_>) -> (u64, u64) {
        let mut tail = self.tail.lock();
        let start = tail.next_lsn;
        if matches!(record, LogRecord::BeginCheckpoint) {
            tail.redo_lsn = start;
        }
        (start, self.append_locked(&mut tail, record))
    }

    /// Append `record`, a change already applied to `page` but not yet
    /// stamped on it, and return the LSN to stamp. When the page's LSN is
    /// at or below the redo point, its after-image follows the record as
    /// a [`LogRecord::PageImage`] and the image's end is returned.
    pub fn append_change(&self, record: &LogRecord<'_>, page: &Page) -> u64 {
        let mut tail = self.tail.lock();
        let end = self.append_locked(&mut tail, record);
        match record.page() {
            Some(id) if page.lsn() <= tail.redo_lsn => {
                let image = LogRecord::PageImage {
                    page: id,
                    image: Cow::Borrowed(page.as_bytes()),
                };
                self.append_locked(&mut tail, &image)
            }
            _ => end,
        }
    }

    /// Encode `record` into the tail behind a placeholder header, fill in
    /// the header from the payload as written, and return its end LSN.
    fn append_locked(&self, tail: &mut WalTail, record: &LogRecord<'_>) -> u64 {
        let frame = tail.pending.len();
        tail.pending.put_u64_le(0);
        record.encode(&mut tail.pending);
        let payload = &tail.pending[frame + 8..];
        let len = payload.len() as u32;
        let sum = checksum(payload);
        tail.pending[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
        tail.pending[frame + 4..frame + 8].copy_from_slice(&sum.to_le_bytes());
        tail.next_lsn += 8 + u64::from(len);
        if matches!(record, LogRecord::Commit { .. }) {
            tail.pending_commits += 1;
        }
        self.metrics.wal_appends.inc();
        self.metrics.wal_bytes.add(8 + u64::from(len));
        tail.next_lsn
    }

    /// The durability watermark: every append whose returned LSN is `<=`
    /// this value has been written (and fsynced when configured).
    pub fn flushed_lsn(&self) -> u64 {
        self.flush.lock().flushed_lsn
    }

    /// LSN of the current logical end of the log.
    pub fn end_lsn(&self) -> u64 {
        self.tail.lock().next_lsn
    }

    /// Block until the record ending at `target` is durable, recording the
    /// wait in `commit_flush_wait_micros`. The first committer in becomes
    /// the leader and flushes the whole pending tail (one write+fsync for
    /// every commit in it); the rest block on the watermark.
    pub fn commit_wait(&self, target: u64) -> Result<()> {
        let t0 = std::time::Instant::now();
        let result = self.wait_durable(target);
        self.metrics
            .commit_flush_wait_micros
            .record(t0.elapsed().as_micros() as u64);
        result
    }

    /// Write the pending tail to the file (and fsync if configured).
    /// Equivalent to `commit_wait(end_lsn)` without the wait metric.
    pub fn flush(&self) -> Result<()> {
        let target = self.tail.lock().next_lsn;
        self.wait_durable(target)
    }

    /// Make the log durable through `target` if it is not already — the
    /// WAL-before-data rule's cheap path: a no-op when the watermark has
    /// passed the page's LSN, a (group) flush otherwise.
    pub fn flush_through(&self, target: u64) -> Result<()> {
        if self.flush.lock().flushed_lsn >= target {
            return Ok(());
        }
        self.wait_durable(target)
    }

    fn wait_durable(&self, target: u64) -> Result<()> {
        let mut st = self.flush.lock();
        loop {
            if let Some(msg) = &st.poisoned {
                return Err(StorageError::WalPoisoned(msg.clone()));
            }
            if st.flushed_lsn >= target {
                return Ok(());
            }
            if st.leader_active {
                let _ = self.durable.wait_for(&mut st, Duration::from_millis(50));
                continue;
            }
            // Become the leader: snapshot the tail, release the flush lock
            // while doing I/O so appenders and new waiters are not blocked
            // behind the fsync.
            st.leader_active = true;
            let mut batch = std::mem::take(&mut st.spare);
            drop(st);
            let (end, commits) = {
                let mut tail = self.tail.lock();
                std::mem::swap(&mut tail.pending, &mut batch);
                (tail.next_lsn, std::mem::take(&mut tail.pending_commits))
            };
            let io = self.write_batch(end - batch.len() as u64, &batch);
            st = self.flush.lock();
            st.leader_active = false;
            if batch.capacity() <= MAX_SPARE {
                batch.clear();
                st.spare = batch;
            }
            match io {
                Ok(()) => {
                    st.flushed_lsn = st.flushed_lsn.max(end);
                    if commits > 0 {
                        self.metrics.wal_group_commits.inc();
                        self.metrics.wal_group_size_sum.add(commits);
                    }
                    self.durable.notify_all();
                    // Every LSN handed out was below the tail taken above,
                    // so a target past it was never issued: no flush can
                    // ever reach it.
                    if end < target {
                        return Err(StorageError::LsnPastEnd { target, end });
                    }
                }
                Err(e) => {
                    // The batch may be torn on disk and the commits in it
                    // were never acknowledged: fail them all, and every
                    // later commit too (a retried fsync proves nothing).
                    let msg = e.to_string();
                    st.poisoned = Some(msg.clone());
                    self.durable.notify_all();
                    self.metrics
                        .dump_flight(format!("WAL poisoned at lsn<={end}: {msg}"));
                    return Err(StorageError::WalPoisoned(msg));
                }
            }
        }
    }

    /// Write `batch`, the log bytes from LSN `start` on, in place: the
    /// file holds exactly the header and the frames below `start`, since
    /// only the one active leader writes and `base_lsn` moves only while
    /// no leader is.
    fn write_batch(&self, start: u64, batch: &[u8]) -> std::io::Result<()> {
        let file = self.file.lock();
        if !batch.is_empty() {
            file.write_all_at(batch, WAL_HEADER + (start - self.base_lsn()))?;
        }
        if self.fsync {
            let t0 = std::time::Instant::now();
            file.sync_data()?;
            self.metrics
                .fsync_micros
                .record(t0.elapsed().as_micros() as u64);
            self.metrics.wal_fsyncs.inc();
            self.metrics.emit(|| FlightEvent::WalFsync {
                bytes_flushed: batch.len() as u64,
            });
        }
        Ok(())
    }

    /// Empty the log (done right after a quiesced checkpoint, when the
    /// data file already reflects everything), and move the redo point to
    /// its end: the next change to each page logs its image. The LSN
    /// clock keeps running — the header's `base_lsn` is rewritten to the
    /// current end — and the now-empty log is durable by definition, so durability
    /// tickets taken before the reset remain satisfied. The empty image is
    /// renamed over the log like [`Wal::truncate_prefix`]'s, so a crash
    /// leaves the old log or the new one, never a header-less file that
    /// would restart the clock at 0, below the LSNs stamped on pages.
    pub fn reset(&self) -> Result<()> {
        let mut st = self.flush.lock();
        while st.leader_active {
            let _ = self.durable.wait_for(&mut st, Duration::from_millis(50));
        }
        let mut tail = self.tail.lock();
        let mut file = self.file.lock();
        self.replace_file(&mut file, tail.next_lsn, &[])?;
        tail.pending.clear();
        tail.pending_commits = 0;
        tail.redo_lsn = tail.next_lsn;
        st.flushed_lsn = tail.next_lsn;
        self.durable.notify_all();
        Ok(())
    }

    /// Make the log file `[header(base)][frames]`: write that image beside
    /// the log, sync it (when fsync is configured), rename it into place,
    /// and point `file` and `base_lsn` at it. A crash at any point leaves
    /// either the old complete log or the new one; with fsync configured,
    /// the directory is synced too, so appends that follow cannot land in
    /// a file a crash would swap back out. The caller holds the flush,
    /// tail and file locks.
    fn replace_file(&self, file: &mut FaultFile, base: u64, frames: &[u8]) -> Result<()> {
        let tmp_path = self.path.with_extension("truncate");
        {
            let tmp = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            let tmp = FaultFile::new(tmp, self.injector.clone());
            tmp.write_all_at(&encode_header(base), 0)?;
            tmp.write_all_at(frames, WAL_HEADER)?;
            if self.fsync {
                tmp.sync_data()?;
            }
        }
        std::fs::rename(&tmp_path, &self.path)?;
        if self.fsync {
            let dir = match self.path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => dir,
                _ => Path::new("."),
            };
            std::fs::File::open(dir)?.sync_all()?;
        }
        // The held handle still points at the old inode: reopen.
        let reopened = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)?;
        *file = FaultFile::new(reopened, self.injector.clone());
        self.base_lsn
            .store(base, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Drop every byte of the log before `horizon` (a frame boundary —
    /// every LSN handed out by this module is one). The retained suffix is
    /// rewritten to a temp file with `base_lsn = horizon` in its header
    /// and atomically renamed over the log, so a crash at any point leaves
    /// either the old complete log or the new complete log. Returns the
    /// number of log bytes freed.
    ///
    /// The caller must only pass a horizon it can recover without: behind
    /// the last complete checkpoint's `min(rec_lsn)` and every active
    /// transaction's first LSN.
    pub fn truncate_prefix(&self, horizon: u64) -> Result<u64> {
        let mut st = self.flush.lock();
        while st.leader_active {
            let _ = self.durable.wait_for(&mut st, Duration::from_millis(50));
        }
        // Unflushed bytes are not in the file yet; never truncate past the
        // durable watermark.
        let horizon = horizon.min(st.flushed_lsn);
        // Held (not read) so no appender can interleave with the rewrite.
        let _tail = self.tail.lock();
        let mut file = self.file.lock();
        let base = self.base_lsn.load(std::sync::atomic::Ordering::Relaxed);
        if horizon <= base {
            return Ok(0);
        }
        // Read the retained suffix out of the current file.
        file.seek(SeekFrom::Start(WAL_HEADER + (horizon - base)))?;
        let mut suffix = Vec::new();
        file.read_to_end(&mut suffix)?;
        self.replace_file(&mut file, horizon, &suffix)?;
        let freed = horizon - base;
        self.metrics.wal_truncated_bytes.add(freed);
        Ok(freed)
    }

    /// LSN of the first byte still present in the log file.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Bytes currently occupied by the log file (header + retained
    /// frames); the quantity the truncation horizon is meant to bound.
    pub fn file_len(&self) -> Result<u64> {
        Ok(std::fs::metadata(&self.path)?.len())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every valid record currently in the log file, each paired with
    /// the LSN of its *end* (the value [`Wal::append`] returned for it). A
    /// torn or corrupt tail ends the scan silently (those records were
    /// never acknowledged); a missing file or missing header is an empty
    /// log.
    pub fn read_all(path: &Path) -> Result<Vec<(u64, LogRecord<'static>)>> {
        let mut out = Vec::new();
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let base = match decode_header(&bytes) {
            Some(base) => base,
            None => return Ok(out),
        };
        let frames = &bytes[WAL_HEADER as usize..];
        let valid = scan_valid_len(frames);
        let mut cursor = &frames[..valid];
        let mut lsn = base;
        while cursor.len() >= 8 {
            let len = u32::from_le_bytes(cursor[0..4].try_into().unwrap()) as usize;
            let payload = &cursor[8..8 + len];
            let mut p = payload;
            lsn += 8 + len as u64;
            match LogRecord::decode(&mut p) {
                Ok(rec) if p.is_empty() => out.push((lsn, rec)),
                _ => break,
            }
            cursor = &cursor[8 + len..];
        }
        Ok(out)
    }
}

/// Length of the valid frame prefix of a log image: the scan stops at a
/// short frame, a checksum mismatch, or trailing garbage.
fn scan_valid_len(bytes: &[u8]) -> usize {
    let mut offset = 0usize;
    while bytes.len() - offset >= 8 {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if bytes.len() - offset < 8 + len {
            break; // torn tail
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        if checksum(payload) != sum {
            break; // corrupt tail
        }
        offset += 8 + len;
    }
    offset
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_testutil::TempDir;

    /// The records of [`Wal::read_all`] with their LSNs stripped, for
    /// tests that only care about contents.
    fn records(path: &Path) -> Vec<LogRecord<'static>> {
        Wal::read_all(path)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    fn sample() -> Vec<LogRecord<'static>> {
        vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::PageAlloc {
                txn: 1,
                page: 1,
                cluster: 2,
            },
            LogRecord::CellInsert {
                txn: 1,
                page: 1,
                slot: 0,
                data: b"hello".to_vec().into(),
            },
            LogRecord::CellUpdate {
                txn: 1,
                page: 1,
                slot: 0,
                data: b"world".to_vec().into(),
                before: b"hello".to_vec().into(),
            },
            LogRecord::CellDelete {
                txn: 1,
                page: 1,
                slot: 0,
                before: b"world".to_vec().into(),
            },
            LogRecord::Commit { txn: 1 },
            LogRecord::Begin { txn: 2 },
            LogRecord::Abort { txn: 2 },
            // Last, so the corruption tests below flip a byte of its
            // image, which is summed word by word.
            LogRecord::PageImage {
                page: 1,
                image: vec![0xA5; PAGE_SIZE].into(),
            },
        ]
    }

    #[test]
    fn append_flush_read_roundtrip() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        for r in sample() {
            wal.append(&r);
        }
        wal.flush().unwrap();
        assert_eq!(records(&path), sample());
    }

    #[test]
    fn unflushed_records_are_not_durable() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        wal.append(&LogRecord::Begin { txn: 1 });
        // no flush
        assert!(Wal::read_all(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        for r in sample() {
            wal.append(&r);
        }
        wal.flush().unwrap();
        // Append garbage simulating a torn write.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[200, 0, 0, 0, 1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(records(&path), sample());
    }

    #[test]
    fn corrupt_checksum_ends_scan() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        for r in sample() {
            wal.append(&r);
        }
        wal.flush().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the last record's payload.
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(records(&path).len(), sample().len() - 1);
    }

    #[test]
    fn reset_truncates_but_lsns_stay_monotonic() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        let before = wal.append(&LogRecord::Begin { txn: 1 });
        wal.flush().unwrap();
        wal.reset().unwrap();
        assert!(Wal::read_all(&path).unwrap().is_empty());
        // The LSN clock keeps running across reset, and everything up to
        // the reset point counts as durable (the log is empty).
        assert!(wal.flushed_lsn() >= before);
        let after = wal.append(&LogRecord::Begin { txn: 2 });
        assert!(after > before);
        // A ticket taken before the reset is immediately satisfiable.
        wal.commit_wait(before).unwrap();
    }

    #[test]
    fn truncate_prefix_drops_records_and_persists_base_lsn() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        let a = wal.append(&LogRecord::Begin { txn: 1 });
        let b = wal.append(&LogRecord::Commit { txn: 1 });
        let c = wal.append(&LogRecord::Begin { txn: 2 });
        wal.flush().unwrap();
        let len_before = wal.file_len().unwrap();
        // Truncate behind txn 2's first record: txn 1 disappears, the
        // file shrinks by exactly the freed bytes, LSNs are unchanged.
        let freed = wal.truncate_prefix(b).unwrap();
        assert!(freed > 0);
        assert_eq!(wal.file_len().unwrap(), len_before - freed);
        assert_eq!(wal.base_lsn(), b);
        let kept = Wal::read_all(&path).unwrap();
        assert_eq!(kept, vec![(c, LogRecord::Begin { txn: 2 })]);
        // A horizon at or below the base is a no-op.
        assert_eq!(wal.truncate_prefix(a).unwrap(), 0);
        // Appends continue monotonically past the truncation...
        let d = wal.append(&LogRecord::Commit { txn: 2 });
        assert!(d > c);
        wal.flush().unwrap();
        drop(wal);
        // ...and the base LSN survives reopen, so records keep their
        // original LSNs even though the file's prefix is gone.
        let wal = Wal::open(&path, false).unwrap();
        assert_eq!(wal.base_lsn(), b);
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![
                (c, LogRecord::Begin { txn: 2 }),
                (d, LogRecord::Commit { txn: 2 })
            ]
        );
        assert_eq!(wal.end_lsn(), d);
    }

    #[test]
    fn flushes_after_truncate_and_reset_land_at_their_lsns() {
        // Each flush writes its batch at the file offset its LSN names.
        // After the file's prefix moves (truncate) or the file is replaced
        // (reset), later flushes must land right behind what the new file
        // holds, and read back at their own LSNs after a reopen.
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        let a = wal.append(&LogRecord::Begin { txn: 1 });
        let b = wal.append(&LogRecord::Commit { txn: 1 });
        wal.flush().unwrap();
        wal.truncate_prefix(a).unwrap();
        let c = wal.append(&LogRecord::Begin { txn: 2 });
        wal.flush().unwrap();
        let d = wal.append(&LogRecord::Commit { txn: 2 });
        wal.flush().unwrap();
        drop(wal);
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![
                (b, LogRecord::Commit { txn: 1 }),
                (c, LogRecord::Begin { txn: 2 }),
                (d, LogRecord::Commit { txn: 2 })
            ]
        );
        let wal = Wal::open(&path, false).unwrap();
        assert_eq!(wal.end_lsn(), d);
        wal.reset().unwrap();
        let e = wal.append(&LogRecord::Begin { txn: 3 });
        wal.flush().unwrap();
        let f = wal.append(&LogRecord::Commit { txn: 3 });
        wal.flush().unwrap();
        drop(wal);
        let wal = Wal::open(&path, false).unwrap();
        assert_eq!(wal.base_lsn(), d);
        assert_eq!(wal.end_lsn(), f);
        // And a flush after the reopen continues the same file.
        let g = wal.append(&LogRecord::Begin { txn: 4 });
        wal.flush().unwrap();
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![
                (e, LogRecord::Begin { txn: 3 }),
                (f, LogRecord::Commit { txn: 3 }),
                (g, LogRecord::Begin { txn: 4 })
            ]
        );
    }

    #[test]
    fn a_torn_flush_is_truncated_at_open() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let injector = Arc::new(crate::fault::FaultInjector::new());
        let wal = Wal::open_with(&path, false, Some(Arc::clone(&injector))).unwrap();
        let a = wal.append(&LogRecord::Begin { txn: 1 });
        wal.flush().unwrap();
        let clean_len = wal.file_len().unwrap();
        wal.append(&LogRecord::CellInsert {
            txn: 1,
            page: 3,
            slot: 0,
            data: vec![7; 64].into(),
        });
        injector.arm_write_cap(5);
        assert!(matches!(wal.flush(), Err(StorageError::WalPoisoned(_))));
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len + 5);
        let wal = Wal::open(&path, false).unwrap();
        assert_eq!(wal.file_len().unwrap(), clean_len, "tear left in place");
        assert_eq!(wal.end_lsn(), a);
        let b = wal.append(&LogRecord::Commit { txn: 1 });
        wal.flush().unwrap();
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![
                (a, LogRecord::Begin { txn: 1 }),
                (b, LogRecord::Commit { txn: 1 })
            ]
        );
    }

    #[test]
    fn a_flushing_leader_wakes_its_sleeping_follower_at_once() {
        // A follower sleeps on the watermark with a 50 ms poll. Hold the
        // file so the leader stalls mid-flush, let the follower go to
        // sleep, then release: 50 handoffs must take far less than 50
        // polls, or a wake-up was skipped.
        const HANDOFFS: u32 = 50;
        let dir = TempDir::new("wal");
        let wal = Arc::new(Wal::open(&dir.file("log"), false).unwrap());
        let started = std::time::Instant::now();
        for t in 0..HANDOFFS {
            let lsn = wal.append(&LogRecord::Commit { txn: t as u64 });
            let file = wal.file.lock();
            let leader = {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || wal.commit_wait(lsn))
            };
            while !wal.flush.lock().leader_active {
                std::thread::yield_now();
            }
            let follower = {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || wal.commit_wait(lsn))
            };
            std::thread::sleep(Duration::from_millis(2));
            drop(file);
            leader.join().unwrap().unwrap();
            follower.join().unwrap().unwrap();
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(50) * HANDOFFS / 2,
            "{HANDOFFS} follower handoffs took {elapsed:?}"
        );
    }

    #[test]
    fn checkpoint_records_round_trip() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        let (_, begin_end) = wal.append_span(&LogRecord::BeginCheckpoint);
        let end = LogRecord::EndCheckpoint {
            begin_lsn: begin_end,
            dirty: vec![(3, 100), (7, 42)],
            active: vec![(11, 90)],
        };
        let e = wal.append(&end);
        wal.flush().unwrap();
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![(begin_end, LogRecord::BeginCheckpoint), (e, end)]
        );
    }

    /// One record of every kind, with the exact frame (`len | checksum |
    /// payload`, hex) each one is written as. A page image's frame is its
    /// pinned head (length, checksum, tag, page id, image length) followed
    /// by the image's own bytes; the checksum covers them all.
    fn golden() -> Vec<(LogRecord<'static>, String)> {
        let mut page = Page::new();
        page.insert(b"ode").unwrap();
        page.set_lsn(0x1234);
        let image = page.as_bytes().to_vec();
        let image_frame = format!("091000005a42ef390a0b00000000100000{}", hex(&image));
        let fixed: Vec<(LogRecord<'static>, &'static str)> = vec![
            (LogRecord::Begin { txn: 1 }, "090000002d20fe04010100000000000000"),
            (
                LogRecord::CellInsert {
                    txn: 2,
                    page: 3,
                    slot: 4,
                    data: b"ode".to_vec().into(),
                },
                "160000000f10871e020200000000000000030000000400030000006f6465",
            ),
            (
                LogRecord::CellUpdate {
                    txn: 0x0102_0304_0506_0708,
                    page: 0x00AB_CDEF,
                    slot: 0xFFFE,
                    data: vec![0xFF; 5].into(),
                    before: Vec::new().into(),
                },
                "1c000000f4022564030807060504030201efcdab00feff05000000ffffffffff00000000",
            ),
            (
                LogRecord::CellDelete {
                    txn: 9,
                    page: 1,
                    slot: 0,
                    before: b"gone".to_vec().into(),
                },
                "17000000b4b5fa4904090000000000000001000000000004000000676f6e65",
            ),
            (
                LogRecord::PageAlloc {
                    txn: 9,
                    page: 7,
                    cluster: 0xDEAD,
                },
                "110000008d817f3505090000000000000007000000adde0000",
            ),
            (LogRecord::Commit { txn: 9 }, "09000000f0a7e73d060900000000000000"),
            (LogRecord::Abort { txn: u64::MAX }, "090000001efc4fbd07ffffffffffffffff"),
            (LogRecord::BeginCheckpoint, "01000000b7690c0d08"),
            (
                LogRecord::EndCheckpoint {
                    begin_lsn: 0x1000,
                    dirty: vec![(3, 100), (7, 42)],
                    active: vec![(11, 90)],
                },
                "390000000c5317dd09001000000000000002000000030000006400000000000000070000002a00000000000000010000000b000000000000005a00000000000000",
            ),
        ];
        let mut golden: Vec<_> = fixed.into_iter().map(|(r, h)| (r, h.to_string())).collect();
        golden.push((
            LogRecord::PageImage {
                page: 11,
                image: image.into(),
            },
            image_frame,
        ));
        golden
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn every_record_kind_writes_its_pinned_frame_bytes() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        let golden = golden();
        for (record, _) in &golden {
            wal.append(record);
        }
        wal.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut frames = &bytes[WAL_HEADER as usize..];
        let mut got = Vec::new();
        while !frames.is_empty() {
            let len = u32::from_le_bytes(frames[..4].try_into().unwrap()) as usize;
            let (frame, rest) = frames.split_at(8 + len);
            got.push(hex(frame));
            frames = rest;
        }
        assert_eq!(got.len(), golden.len());
        for ((record, want), got) in golden.iter().zip(&got) {
            assert_eq!(got, want, "frame of {record:?}");
        }
        let records: Vec<_> = golden.into_iter().map(|(r, _)| r).collect();
        assert_eq!(self::records(&path), records);
    }

    #[test]
    fn reading_missing_log_is_empty() {
        let dir = TempDir::new("wal");
        assert!(Wal::read_all(&dir.file("absent")).unwrap().is_empty());
    }

    #[test]
    fn lsns_increase() {
        let dir = TempDir::new("wal");
        let wal = Wal::open(&dir.file("log"), false).unwrap();
        let a = wal.append(&LogRecord::Begin { txn: 1 });
        let b = wal.append(&LogRecord::Commit { txn: 1 });
        assert!(b > a);
    }

    #[test]
    fn open_truncates_torn_tail() {
        // Satellite regression: garbage appended to wal.log (a torn final
        // frame) must be truncated at open so later appends stay readable.
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        {
            let wal = Wal::open(&path, false).unwrap();
            for r in sample() {
                wal.append(&r);
            }
            wal.flush().unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[200, 0, 0, 0, 9, 9, 9, 9, 1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();
        let wal = Wal::open(&path, false).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // New appends land after the valid prefix and are all readable.
        wal.append(&LogRecord::Begin { txn: 9 });
        wal.append(&LogRecord::Commit { txn: 9 });
        wal.flush().unwrap();
        let mut expect = sample();
        expect.push(LogRecord::Begin { txn: 9 });
        expect.push(LogRecord::Commit { txn: 9 });
        assert_eq!(records(&path), expect);
    }

    #[test]
    fn commit_wait_makes_record_durable() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let wal = Wal::open(&path, false).unwrap();
        wal.append(&LogRecord::Begin { txn: 1 });
        let lsn = wal.append(&LogRecord::Commit { txn: 1 });
        assert!(wal.flushed_lsn() < lsn);
        wal.commit_wait(lsn).unwrap();
        assert!(wal.flushed_lsn() >= lsn);
        assert_eq!(Wal::read_all(&path).unwrap().len(), 2);
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let mut wal = Wal::open(&path, true).unwrap();
        let metrics = Arc::new(Metrics::new());
        wal.set_metrics(Arc::clone(&metrics));
        let wal = Arc::new(wal);
        const N: u64 = 16;
        let barrier = Arc::new(std::sync::Barrier::new(N as usize));
        let handles: Vec<_> = (0..N)
            .map(|t| {
                let wal = Arc::clone(&wal);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let lsn = wal.append(&LogRecord::Commit { txn: t });
                    wal.commit_wait(lsn).unwrap();
                    assert!(wal.flushed_lsn() >= lsn);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.snapshot();
        // Every commit is accounted for in exactly one flush batch. How
        // many commits actually share a batch is scheduling-dependent —
        // a fully serialized interleaving (each thread leading its own
        // record) is legal, so only the accounting is asserted, not a
        // strict batching inequality.
        assert_eq!(snap.wal_group_size_sum, N);
        assert!((1..=N).contains(&snap.wal_group_commits));
        assert_eq!(Wal::read_all(&path).unwrap().len(), N as usize);
    }

    #[test]
    fn sequential_commits_each_fsync_once() {
        // With no concurrent committer to share a flush with, each commit
        // leads its own batch: one write+fsync per commit, no more.
        let dir = TempDir::new("wal");
        let mut wal = Wal::open(&dir.file("log"), true).unwrap();
        let metrics = Arc::new(Metrics::new());
        wal.set_metrics(Arc::clone(&metrics));
        for t in 0..4 {
            let lsn = wal.append(&LogRecord::Commit { txn: t });
            wal.commit_wait(lsn).unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.wal_fsyncs, 4);
        assert_eq!(snap.wal_group_commits, 4);
        assert_eq!(snap.wal_group_size_sum, 4);
    }

    #[test]
    fn failed_fsync_poisons_the_log() {
        let dir = TempDir::new("wal");
        let injector = Arc::new(crate::fault::FaultInjector::new());
        let wal = Wal::open_with(&dir.file("log"), true, Some(Arc::clone(&injector))).unwrap();
        injector.arm_fail_fsync();
        let lsn = wal.append(&LogRecord::Commit { txn: 1 });
        assert!(matches!(
            wal.commit_wait(lsn),
            Err(StorageError::WalPoisoned(_))
        ));
        // Sticky: even after the device "recovers", commits keep failing
        // until reopen (the on-disk tail state is unknowable).
        injector.disarm();
        let lsn2 = wal.append(&LogRecord::Commit { txn: 2 });
        assert!(matches!(
            wal.commit_wait(lsn2),
            Err(StorageError::WalPoisoned(_))
        ));
    }

    #[test]
    fn a_reset_torn_in_its_header_keeps_the_old_log_and_lsn_clock() {
        // A checkpoint ends with a reset. If the device dies 5 bytes into
        // the new header, the next open must still find a log whose clock
        // runs from where the last complete reset put it, not from 0.
        let dir = TempDir::new("wal");
        let path = dir.file("log");
        let injector = Arc::new(crate::fault::FaultInjector::new());
        let wal = Wal::open_with(&path, false, Some(Arc::clone(&injector))).unwrap();
        wal.append(&LogRecord::Begin { txn: 1 });
        wal.flush().unwrap();
        wal.reset().unwrap();
        let base = wal.base_lsn();
        assert!(base > 0);
        let a = wal.append(&LogRecord::Begin { txn: 2 });
        let b = wal.append(&LogRecord::Commit { txn: 2 });
        wal.flush().unwrap();
        injector.arm_write_cap(5);
        assert!(wal.reset().is_err());
        drop(wal);
        let wal = Wal::open(&path, false).unwrap();
        assert_eq!(wal.base_lsn(), base, "base_lsn rewound");
        assert_eq!(wal.end_lsn(), b);
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![
                (a, LogRecord::Begin { txn: 2 }),
                (b, LogRecord::Commit { txn: 2 })
            ]
        );
    }

    #[test]
    fn waiting_past_the_log_end_is_an_error_not_a_spin() {
        let dir = TempDir::new("wal");
        let wal = Arc::new(Wal::open(&dir.file("log"), false).unwrap());
        let end = wal.append(&LogRecord::Begin { txn: 1 });
        let (tx, rx) = std::sync::mpsc::channel();
        for target in [end + 100, end + 1] {
            let wal = Arc::clone(&wal);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send((target, wal.commit_wait(target)));
                let _ = tx.send((target, wal.flush_through(target)));
            });
        }
        for _ in 0..4 {
            let (target, result) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a wait past the log end must return");
            assert!(
                matches!(result, Err(StorageError::LsnPastEnd { target: t, end: e }) if t == target && e == end),
                "{result:?}"
            );
        }
        // What the log does hold was flushed on the way, and it stays
        // usable.
        assert_eq!(wal.flushed_lsn(), end);
        let next = wal.append(&LogRecord::Commit { txn: 1 });
        wal.commit_wait(next).unwrap();
    }
}
