//! Fault injection for crash-recovery testing.
//!
//! A [`FaultInjector`] is an armable plan shared (via `Arc`) by every
//! [`FaultFile`] of a database — the WAL file and the data file both wrap
//! their handles in one. While disarmed it costs an uncontended lock and
//! one atomic load per fsync, and the same plus one relaxed add (the
//! written-bytes count) per write. Armed plans model the ways a commit
//! pipeline dies:
//!
//! * **Write cap** — the device accepts N more bytes, writes a *prefix* of
//!   the next overflowing write (tearing the frame mid-record), then fails
//!   every subsequent write and fsync. This is the classic torn-tail crash.
//! * **Fsync failure** — writes land in the OS cache but `sync_data`
//!   reports an error, after which the file is dead (fsyncgate semantics:
//!   a failed fsync is fail-stop, not retryable).
//!
//! Both model a *process* crash: every write that returned is in the OS
//! cache and survives. An injector built with
//! [`FaultInjector::power_loss`] models a power cut instead. It keeps the
//! prior bytes of every write that no completed `sync_data` on its file
//! covers yet, and when a fault fires it puts them all back, newest
//! first, so only what was synced survives. A write cap's overflowing
//! write then lands torn on top, the way a disk tears one: sector by
//! sector, in no particular order. Nothing past the cap reached the
//! device. Of the bytes below it, each 512-byte file sector lands whole
//! or not at all, as the injector's seed decides, except the piece that
//! ends at the cap, which always lands — so a later sector can land while
//! an earlier one does not. Only positional writes and syncs are
//! modelled: a truncation or a rename is durable at once.
//!
//! After the first injected fault the injector is *tripped*: all further
//! writes and fsyncs fail, modelling a machine that is simply gone. The
//! crash-recovery harness then reopens the directory under a second
//! injector that dies inside recovery itself, reopens once more with a
//! fresh, uninjected [`Storage`](crate::storage::Storage), and asserts
//! the recovered state is a committed prefix.
//!
//! Every injected fault ticks the engine-wide `faults_injected` counter
//! (when a registry has been attached) plus a local count readable via
//! [`FaultInjector::injected`].

use ode_obs::Metrics;
use parking_lot::Mutex;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What the armed plan does to the next matching operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Nothing armed; all I/O passes through.
    Disarmed,
    /// Allow `remaining` more payload bytes, tear the write that crosses
    /// the budget, then trip.
    WriteCap { remaining: u64 },
    /// The next fsync fails, then trip.
    FailFsync,
    /// A fault already fired: every write and fsync fails from now on.
    Tripped,
}

/// A write no completed sync covers yet: what its bytes replaced.
struct Unsynced {
    file: Arc<File>,
    offset: u64,
    /// The bytes the write overwrote (those below the old file end).
    prior: Vec<u8>,
    /// The file's length before the write.
    len: u64,
}

/// Shared, armable fault plan. See module docs.
pub struct FaultInjector {
    armed: AtomicBool,
    plan: Mutex<Plan>,
    injected: AtomicU64,
    written: AtomicU64,
    metrics: Mutex<Option<Arc<Metrics>>>,
    /// Whether a fault cuts power ([`FaultInjector::power_loss`]).
    power_loss: bool,
    /// Power-loss mode: the writes no completed sync covers, oldest
    /// first. Held across each write and sync, so a fault that rolls them
    /// back never races one.
    unsynced: Mutex<Vec<Unsynced>>,
    /// Power-loss mode: decides which sectors of a torn write land.
    seed: u64,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &*self.plan.lock())
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .field("written", &self.written.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::new()
    }
}

/// Outcome of consulting the plan before a write.
enum WriteOutcome {
    /// Perform the full write.
    Full,
    /// Write only the first `n` bytes, then report the device dead.
    Torn(usize),
    /// Perform no write at all; the device is dead.
    Dead,
}

impl FaultInjector {
    /// A disarmed injector (all I/O passes through until armed).
    pub fn new() -> FaultInjector {
        FaultInjector {
            armed: AtomicBool::new(false),
            plan: Mutex::new(Plan::Disarmed),
            injected: AtomicU64::new(0),
            written: AtomicU64::new(0),
            metrics: Mutex::new(None),
            power_loss: false,
            unsynced: Mutex::new(Vec::new()),
            seed: 0,
        }
    }

    /// A disarmed injector whose faults cut power: when one fires, every
    /// write that no completed `sync_data` on its file covers is undone,
    /// and a write cap's overflowing write lands torn on top: a subset of
    /// its sectors below the cap that `seed` picks. From creation on it
    /// keeps the prior bytes of each unsynced write, so it suits crash
    /// tests that sync (fsync on).
    pub fn power_loss(seed: u64) -> FaultInjector {
        FaultInjector {
            power_loss: true,
            seed,
            ..FaultInjector::new()
        }
    }

    /// Tick injected faults into this registry too (done at storage
    /// assembly, so harness assertions can use `MetricsSnapshot`).
    pub fn attach_metrics(&self, metrics: Arc<Metrics>) {
        *self.metrics.lock() = Some(metrics);
    }

    /// Allow `bytes` more written bytes across all wrapped files, then
    /// tear the overflowing write and kill the device.
    pub fn arm_write_cap(&self, bytes: u64) {
        *self.plan.lock() = Plan::WriteCap { remaining: bytes };
        self.armed.store(true, Ordering::Release);
    }

    /// Fail the next fsync, then kill the device.
    pub fn arm_fail_fsync(&self) {
        *self.plan.lock() = Plan::FailFsync;
        self.armed.store(true, Ordering::Release);
    }

    /// Return to pass-through mode (also clears a tripped state).
    pub fn disarm(&self) {
        *self.plan.lock() = Plan::Disarmed;
        self.armed.store(false, Ordering::Release);
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Bytes that reached the wrapped files so far, armed or not (a torn
    /// write counts its prefix). A dry run on a twin directory reads it
    /// to aim a write cap at one particular write.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Has a fault fired (device considered dead)?
    pub fn tripped(&self) -> bool {
        self.armed.load(Ordering::Acquire) && *self.plan.lock() == Plan::Tripped
    }

    fn record_injection(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.lock().as_ref() {
            m.faults_injected.inc();
        }
    }

    fn on_write(&self, len: usize) -> WriteOutcome {
        let outcome = self.plan_write(len);
        let landed = match outcome {
            WriteOutcome::Full => len,
            WriteOutcome::Torn(n) => n,
            WriteOutcome::Dead => 0,
        };
        self.written.fetch_add(landed as u64, Ordering::Relaxed);
        outcome
    }

    fn plan_write(&self, len: usize) -> WriteOutcome {
        if !self.armed.load(Ordering::Acquire) {
            return WriteOutcome::Full;
        }
        let mut plan = self.plan.lock();
        match *plan {
            Plan::Disarmed | Plan::FailFsync => WriteOutcome::Full,
            Plan::WriteCap { remaining } => {
                if (len as u64) <= remaining {
                    *plan = Plan::WriteCap {
                        remaining: remaining - len as u64,
                    };
                    WriteOutcome::Full
                } else {
                    *plan = Plan::Tripped;
                    drop(plan);
                    self.record_injection();
                    WriteOutcome::Torn(remaining as usize)
                }
            }
            Plan::Tripped => {
                drop(plan);
                self.record_injection();
                WriteOutcome::Dead
            }
        }
    }

    fn on_fsync(&self) -> std::io::Result<()> {
        if !self.armed.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut plan = self.plan.lock();
        match *plan {
            Plan::Disarmed | Plan::WriteCap { .. } => Ok(()),
            Plan::FailFsync | Plan::Tripped => {
                *plan = Plan::Tripped;
                drop(plan);
                self.record_injection();
                Err(dead("fsync failed"))
            }
        }
    }

    /// Write `buf` at `offset` of `file` under the plan, keeping its prior
    /// bytes in power-loss mode; a fault there first undoes every
    /// unsynced write.
    fn write_at(&self, file: &Arc<File>, buf: &[u8], offset: u64) -> std::io::Result<()> {
        let mut unsynced = self.unsynced.lock();
        match self.on_write(buf.len()) {
            WriteOutcome::Full => {
                if self.power_loss {
                    let len = file.metadata()?.len();
                    let mut prior =
                        vec![0; len.saturating_sub(offset).min(buf.len() as u64) as usize];
                    file.read_exact_at(&mut prior, offset)?;
                    unsynced.push(Unsynced {
                        file: Arc::clone(file),
                        offset,
                        prior,
                        len,
                    });
                }
                file.write_all_at(buf, offset)
            }
            WriteOutcome::Torn(n) => {
                // The device dies mid-write. Of the bytes below the cap, a
                // process crash leaves all (the OS took them); a power cut
                // lands each sector or not, but always the cap's piece.
                self.cut_power(&mut unsynced)?;
                let cap = offset + n as u64;
                let mut at = offset;
                while at < cap {
                    let end = ((at / SECTOR + 1) * SECTOR).min(cap);
                    if end == cap || !self.power_loss || mix(self.seed ^ (at / SECTOR)) & 1 == 1 {
                        let piece = &buf[(at - offset) as usize..(end - offset) as usize];
                        file.write_all_at(piece, at)?;
                    }
                    at = end;
                }
                Err(dead("write killed by byte cap"))
            }
            WriteOutcome::Dead => Err(dead("write after device death")),
        }
    }

    /// `sync_data` of `file` under the plan: once it completes, the
    /// file's unsynced writes are durable.
    fn sync(&self, file: &Arc<File>) -> std::io::Result<()> {
        let mut unsynced = self.unsynced.lock();
        if let Err(e) = self.on_fsync() {
            self.cut_power(&mut unsynced)?;
            return Err(e);
        }
        file.sync_data()?;
        unsynced.retain(|w| !Arc::ptr_eq(&w.file, file));
        Ok(())
    }

    /// Undo every unsynced write, newest first (none are kept outside
    /// power-loss mode).
    fn cut_power(&self, unsynced: &mut Vec<Unsynced>) -> std::io::Result<()> {
        for w in unsynced.drain(..).rev() {
            w.file.write_all_at(&w.prior, w.offset)?;
            w.file.set_len(w.len)?;
        }
        Ok(())
    }
}

/// The unit a power cut tears a write into: each lands whole or not at all.
const SECTOR: u64 = 512;

/// splitmix64's finaliser: a well-spread 64-bit hash of `x`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn dead(what: &str) -> std::io::Error {
    std::io::Error::other(format!("fault injected: {what}"))
}

/// A [`File`] wrapper that routes writes and fsyncs through an optional
/// [`FaultInjector`]. Reads, seeks, and truncation pass through untouched
/// (a crashed machine stops *writing*; recovery reads are real I/O).
pub struct FaultFile {
    file: Arc<File>,
    injector: Option<Arc<FaultInjector>>,
}

impl FaultFile {
    /// Wrap `file`; `injector: None` is zero-overhead pass-through.
    pub fn new(file: File, injector: Option<Arc<FaultInjector>>) -> FaultFile {
        FaultFile {
            file: Arc::new(file),
            injector,
        }
    }

    /// Write all of `buf` at byte `offset` (one `pwrite`, no seek),
    /// subject to the armed fault plan: a write cap tears the write that
    /// crosses it.
    pub fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        match &self.injector {
            None => self.file.write_all_at(buf, offset),
            Some(injector) => injector.write_at(&self.file, buf, offset),
        }
    }

    /// `sync_data`, subject to the armed fault plan.
    pub fn sync_data(&self) -> std::io::Result<()> {
        match &self.injector {
            None => self.file.sync_data(),
            Some(injector) => injector.sync(&self.file),
        }
    }

    /// Seek (pass-through).
    pub fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        (&*self.file).seek(pos)
    }

    /// Exact read at byte `offset` (one `pread`, no seek; pass-through).
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.file.read_exact_at(buf, offset)
    }

    /// Read to end (pass-through).
    pub fn read_to_end(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        (&*self.file).read_to_end(buf)
    }

    /// Truncate (pass-through; recovery repairs torn tails with this).
    pub fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_testutil::TempDir;

    fn scratch(dir: &TempDir, injector: Option<Arc<FaultInjector>>) -> FaultFile {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.file("f"))
            .unwrap();
        FaultFile::new(file, injector)
    }

    #[test]
    fn pass_through_without_injector() {
        let dir = TempDir::new("fault");
        let mut f = scratch(&dir, None);
        f.write_all_at(b"hello", 0).unwrap();
        f.sync_data().unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello");
    }

    #[test]
    fn write_cap_tears_and_trips() {
        let dir = TempDir::new("fault");
        let injector = Arc::new(FaultInjector::new());
        let mut f = scratch(&dir, Some(Arc::clone(&injector)));
        injector.arm_write_cap(6);
        f.write_all_at(b"abcd", 0).unwrap(); // 4 of 6 bytes used
        let err = f.write_all_at(b"efgh", 4).unwrap_err(); // tears after 2 bytes
        assert!(err.to_string().contains("fault injected"));
        assert!(injector.tripped());
        // Device dead: further writes and fsyncs fail.
        assert!(f.write_all_at(b"x", 6).is_err());
        assert!(f.sync_data().is_err());
        assert!(injector.injected() >= 3);
        // The torn prefix reached the file.
        f.seek(SeekFrom::Start(0)).unwrap();
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"abcdef");
    }

    #[test]
    fn positional_writes_tear_under_the_same_cap() {
        let dir = TempDir::new("fault");
        let injector = Arc::new(FaultInjector::new());
        let f = scratch(&dir, Some(Arc::clone(&injector)));
        injector.arm_write_cap(6);
        f.write_all_at(b"abcd", 4).unwrap();
        assert!(f.write_all_at(b"wxyz", 0).is_err()); // tears after 2 bytes
        assert!(injector.tripped());
        assert!(f.write_all_at(b"!", 8).is_err());
        let mut buf = [0u8; 8];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"wx\0\0abcd");
    }

    #[test]
    fn fsync_failure_trips() {
        let dir = TempDir::new("fault");
        let injector = Arc::new(FaultInjector::new());
        let f = scratch(&dir, Some(Arc::clone(&injector)));
        injector.arm_fail_fsync();
        f.write_all_at(b"written but never durable", 0).unwrap();
        assert!(f.sync_data().is_err());
        assert!(injector.tripped());
        assert!(f.write_all_at(b"x", 0).is_err());
    }

    #[test]
    fn disarm_restores_io() {
        let dir = TempDir::new("fault");
        let injector = Arc::new(FaultInjector::new());
        let f = scratch(&dir, Some(Arc::clone(&injector)));
        injector.arm_write_cap(0);
        assert!(f.write_all_at(b"no", 0).is_err());
        injector.disarm();
        f.write_all_at(b"yes", 0).unwrap();
        f.sync_data().unwrap();
    }

    #[test]
    fn metrics_tick_on_injection() {
        let dir = TempDir::new("fault");
        let injector = Arc::new(FaultInjector::new());
        let metrics = Arc::new(Metrics::new());
        injector.attach_metrics(Arc::clone(&metrics));
        let f = scratch(&dir, Some(Arc::clone(&injector)));
        injector.arm_fail_fsync();
        assert!(f.sync_data().is_err());
        assert_eq!(metrics.snapshot().faults_injected, 1);
        assert_eq!(injector.injected(), 1);
    }

    fn contents(f: &mut FaultFile) -> Vec<u8> {
        f.seek(SeekFrom::Start(0)).unwrap();
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).unwrap();
        buf
    }

    #[test]
    fn power_loss_keeps_what_was_synced_and_tears_the_last_write() {
        let dir = TempDir::new("fault");
        let injector = Arc::new(FaultInjector::power_loss(0));
        let mut f = scratch(&dir, Some(Arc::clone(&injector)));
        f.write_all_at(b"durable!", 0).unwrap();
        f.sync_data().unwrap();
        // Overwritten and extended, but never synced.
        f.write_all_at(b"LOST", 2).unwrap();
        f.write_all_at(b"gone too", 8).unwrap();
        injector.arm_write_cap(3);
        assert!(f.write_all_at(b"torn", 4).is_err());
        assert!(injector.tripped());
        // Both unsynced writes are undone; 3 bytes of the last one land.
        assert_eq!(contents(&mut f), b"durator!");
    }

    #[test]
    fn power_loss_undoes_each_file_back_to_its_own_last_sync() {
        let dir = TempDir::new("fault");
        let injector = Arc::new(FaultInjector::power_loss(0));
        let open = |name: &str| {
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(dir.file(name))
                .unwrap();
            FaultFile::new(file, Some(Arc::clone(&injector)))
        };
        let (mut log, mut data) = (open("log"), open("data"));
        log.write_all_at(b"commit", 0).unwrap();
        data.write_all_at(b"page", 0).unwrap();
        log.sync_data().unwrap(); // covers the log only
        injector.arm_fail_fsync();
        assert!(data.sync_data().is_err());
        assert_eq!(contents(&mut log), b"commit");
        assert!(contents(&mut data).is_empty(), "an unsynced write survived");
    }

    #[test]
    fn a_power_loss_tear_lands_whole_sectors_in_any_order() {
        // Three sectors of old bytes, synced; then a write of three
        // sectors of new ones whose cap falls inside the third: nothing
        // past the cap lands, and each sector before it whole or not.
        let mut later_without_earlier = false;
        for seed in 0..32 {
            let dir = TempDir::new("fault");
            let injector = Arc::new(FaultInjector::power_loss(seed));
            let mut f = scratch(&dir, Some(Arc::clone(&injector)));
            f.write_all_at(&[b'o'; 1536], 0).unwrap();
            f.sync_data().unwrap();
            injector.arm_write_cap(1100);
            assert!(f.write_all_at(&[b'n'; 1536], 0).is_err());
            let bytes = contents(&mut f);
            let sector = |i: usize| &bytes[i * 512..(i + 1) * 512];
            for i in 0..2 {
                assert!(
                    sector(i).iter().all(|&b| b == sector(i)[0]),
                    "seed {seed}: sector {i} landed in part"
                );
            }
            // The piece that ends at the cap lands.
            assert!(bytes[1024..1100].iter().all(|&b| b == b'n'));
            assert!(bytes[1100..].iter().all(|&b| b == b'o'));
            later_without_earlier |= sector(0)[0] == b'o' && sector(1)[0] == b'n';
        }
        assert!(
            later_without_earlier,
            "no seed landed sector 1 without sector 0"
        );
    }
}
