//! Lock manager: strict two-phase shared/exclusive locking with deadlock
//! detection, striped for multi-core scalability.
//!
//! The paper's §6 observes that "triggers turn read access into write
//! access, increasing both the amount of time the transactions spend
//! waiting for locks and the likelihood of deadlock": advancing a trigger's
//! FSM updates a trigger descriptor, which needs a write lock even when the
//! triggering operation was a read. This lock manager exposes wait and
//! deadlock counters so that effect can be measured (experiment E4).
//!
//! ## Striping
//!
//! The lock table is split into a power-of-two array of *stripes*, each a
//! mutex-guarded table with its own condvar, so unrelated lock/unlock
//! traffic from different threads lands on different mutexes instead of
//! funnelling through one process-wide lock. A key's stripe is
//! `hash::partition` of the key: middle bits of the engine's one integer
//! hasher ([`crate::hash`]), whose low and top bits the stripe's own
//! tables then use for buckets and tags. Every table in a stripe, and the
//! per-transaction footprints, is an [`IntMap`]: lock keys and
//! transaction ids are engine-issued integers, hashed with one multiply
//! per word rather than SipHash. `Storage` always uses
//! [`DEFAULT_LOCK_STRIPES`]; stripe count 1 (see
//! [`LockManager::with_config`]) reproduces the original single-table
//! manager exactly, which the unit tests use to force same-stripe
//! collisions.
//!
//! Grant, upgrade, and release touch only the key's stripe. Deadlock
//! detection needs a *consistent* view of the waits-for graph across
//! stripes; a blocked request's periodic detection pass therefore acquires
//! every stripe in index order (a total order, so detection passes can
//! never deadlock on the stripe mutexes themselves), walks the graph, and
//! — if the requester is on a cycle — removes its own wait entry *while
//! still holding all stripes*. That makes victim selection serializable:
//! the next detection pass sees the cycle already broken, so a cycle
//! yields exactly one victim, same as the single-table manager.
//!
//! ## Unlock ordering vs. durability
//!
//! Strict 2PL releases a transaction's locks at commit. With group commit
//! the release happens in `Storage::commit_deferred` — *after* the Commit
//! record is appended to the WAL but *before* it is durable. This early
//! release is what lets a dependent system transaction acquire the parent's
//! locks and append its own Commit record into the same flush batch. It
//! cannot expose non-durable data to the outside: a *writing* reader of
//! the early-released writes appends its own Commit record at a strictly
//! later LSN, and no commit is acknowledged until the durability watermark
//! covers its LSN; a *read-only* reader appends nothing, so its commit
//! ticket instead carries the log tail observed at commit (which bounds
//! every writer it could have read) and `Storage::commit_wait` waits for
//! that barrier. Either way an acknowledged reader implies durable
//! writers.

use crate::error::{Result, StorageError};
use crate::hash::{partition, IntMap, IntSet};
use crate::txn::TxnId;
use ode_obs::{FlightEvent, Metrics};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default number of lock-table stripes (power of two).
pub const DEFAULT_LOCK_STRIPES: usize = 64;

/// What a lock protects. Objects are locked by their Oid; a few named
/// resources (e.g. the roots directory) get their own keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKey {
    /// A persistent object (packed Oid).
    Object(u64),
    /// The named-roots directory.
    Roots,
    /// A whole cluster (used by cluster scans).
    Cluster(u32),
}

/// Lock modes. Shared is compatible with shared; exclusive with nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockMode {
    /// Read lock.
    Shared,
    /// Write lock.
    Exclusive,
}

#[derive(Default)]
struct LockState {
    holders: IntMap<TxnId, LockMode>,
}

impl LockState {
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|(&h, &hm)| h == txn || (mode == LockMode::Shared && hm == LockMode::Shared))
    }

    fn blockers(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.holders
            .iter()
            .filter(|&(&h, &hm)| h != txn && !(mode == LockMode::Shared && hm == LockMode::Shared))
            .map(|(&h, _)| h)
            .collect()
    }
}

/// One stripe's share of the lock table. Every map in here only holds
/// entries whose key hashes to this stripe; `held` and `waiting` are
/// keyed by transaction but store only this stripe's keys.
#[derive(Default)]
struct Tables {
    locks: IntMap<LockKey, LockState>,
    /// Keys held per transaction (this stripe only), for O(held) release.
    held: IntMap<TxnId, IntSet<LockKey>>,
    /// What each blocked transaction is currently waiting on (waiters
    /// register in the stripe of the key they wait for).
    waiting: IntMap<TxnId, (LockKey, LockMode)>,
}

struct Stripe {
    tables: Mutex<Tables>,
    cv: Condvar,
}

/// Counters exposed for experiments and monitoring. Since the striping
/// rework this is a *view* derived from the lock-free `ode-obs` registry
/// (the same treatment `TriggerStats` got): the lock hot path increments
/// relaxed atomics only and never takes a statistics mutex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Lock requests granted immediately.
    pub immediate_grants: u64,
    /// Lock requests that had to wait at least once.
    pub waits: u64,
    /// Requests aborted as deadlock victims.
    pub deadlocks: u64,
    /// Shared locks upgraded to exclusive.
    pub upgrades: u64,
    /// Total time spent blocked, in microseconds.
    pub wait_micros: u64,
}

/// Outcome of one all-stripes detection pass for a blocked request.
enum Sweep {
    /// The request became grantable and was granted.
    Granted,
    /// The requester sits on a waits-for cycle and was chosen victim
    /// (its wait entry is already removed).
    Victim,
    /// Still blocked, no cycle: go back to sleep.
    KeepWaiting,
}

/// One shard of the per-transaction stripe-footprint map: txn id →
/// bitmask of stripes the transaction has requested locks in.
type FootprintShard = Mutex<IntMap<TxnId, Vec<u64>>>;

/// The lock manager. See module docs for the striping design.
pub struct LockManager {
    stripes: Box<[Stripe]>,
    /// `stripes.len() - 1`; stripe count is always a power of two.
    mask: usize,
    /// Per-transaction bitmask of stripes it has requested locks in, so
    /// [`LockManager::unlock_all`] visits only those stripes instead of
    /// sweeping all of them on every commit. Striped by transaction id;
    /// a transaction runs on one thread, so its entry (and the shard
    /// mutex protecting it) stays core-local. Bits may be set for
    /// requests that were never granted (deadlock victim, timeout) —
    /// release then finds nothing there, which is harmless.
    footprints: Box<[FootprintShard]>,
    /// `footprints.len() - 1`; always a power of two.
    fp_mask: usize,
    /// Baseline snapshot subtracted by [`LockManager::stats`] so
    /// [`LockManager::reset_stats`] works without mutating the shared
    /// engine-wide registry.
    stats_baseline: Mutex<LockStats>,
    metrics: Arc<Metrics>,
    timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(10))
    }
}

impl LockManager {
    /// Create a lock manager whose blocking requests give up after
    /// `timeout` (a safety net; deadlocks are normally detected, not
    /// timed out). Uses [`DEFAULT_LOCK_STRIPES`] stripes.
    pub fn new(timeout: Duration) -> LockManager {
        LockManager::with_metrics(timeout, Arc::new(Metrics::new()))
    }

    /// Like [`LockManager::new`], but recording into a shared engine-wide
    /// metrics registry instead of a private one.
    pub fn with_metrics(timeout: Duration, metrics: Arc<Metrics>) -> LockManager {
        LockManager::with_config(timeout, metrics, DEFAULT_LOCK_STRIPES)
    }

    /// Fully configured constructor. `stripes` is rounded up to a power of
    /// two; `1` reproduces the pre-striping single-table manager.
    pub fn with_config(timeout: Duration, metrics: Arc<Metrics>, stripes: usize) -> LockManager {
        let n = stripes.max(1).next_power_of_two();
        LockManager {
            stripes: (0..n)
                .map(|_| Stripe {
                    tables: Mutex::new(Tables::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            mask: n - 1,
            footprints: (0..n).map(|_| Mutex::new(IntMap::default())).collect(),
            fp_mask: n - 1,
            stats_baseline: Mutex::new(LockStats::default()),
            metrics,
            timeout,
        }
    }

    /// Number of stripes the lock table is split into.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Which stripe a key lives in (stable for the manager's lifetime;
    /// exposed so tests can construct cross-stripe scenarios).
    pub fn stripe_of(&self, key: &LockKey) -> usize {
        partition(key, self.mask)
    }

    /// Lock one stripe, counting contended acquisitions into the registry.
    fn lock_stripe(&self, idx: usize) -> MutexGuard<'_, Tables> {
        match self.stripes[idx].tables.try_lock() {
            Some(guard) => guard,
            None => {
                self.metrics.lock_stripe_contention.inc();
                let started = Instant::now();
                let guard = self.stripes[idx].tables.lock();
                self.metrics
                    .shard_acquire_nanos
                    .record(started.elapsed().as_nanos() as u64);
                guard
            }
        }
    }

    /// Record that `txn` is about to request a lock in stripe `idx`.
    /// Must be called *before* taking the stripe guard: a footprint shard
    /// may be locked while stripe guards are held (`unlock_all` drops its
    /// footprint guard before touching stripes), never the other way.
    fn note_stripe(&self, txn: TxnId, idx: usize) {
        let words = self.stripes.len().div_ceil(64);
        let mut shard = self.footprints[txn.0 as usize & self.fp_mask].lock();
        let mask = shard.entry(txn).or_insert_with(|| vec![0u64; words]);
        mask[idx / 64] |= 1 << (idx % 64);
    }

    /// Acquire `key` in `mode` for `txn`, blocking if necessary.
    /// Re-acquiring an already-held lock is a no-op; holding Shared and
    /// requesting Exclusive upgrades.
    pub fn lock(&self, txn: TxnId, key: LockKey, mode: LockMode) -> Result<()> {
        let acquired = match mode {
            LockMode::Shared => &self.metrics.lock_shared_acquisitions,
            LockMode::Exclusive => &self.metrics.lock_exclusive_acquisitions,
        };
        let idx = self.stripe_of(&key);
        self.note_stripe(txn, idx);
        let wait_span = {
            let mut tables = self.lock_stripe(idx);
            if let Some(&held) = tables.locks.get(&key).and_then(|s| s.holders.get(&txn)) {
                if held >= mode {
                    return Ok(());
                }
                self.metrics.lock_upgrades.inc();
            }
            if tables
                .locks
                .get(&key)
                .is_none_or(|s| s.compatible(txn, mode))
            {
                Self::grant(&mut tables, txn, key, mode);
                self.metrics.lock_immediate_grants.inc();
                acquired.inc();
                return Ok(());
            }

            // Must wait: register in the key's stripe, then block outside
            // the fast path.
            match mode {
                LockMode::Shared => self.metrics.lock_shared_waits.inc(),
                LockMode::Exclusive => self.metrics.lock_exclusive_waits.inc(),
            }
            // Open the wait span first so the LockWait record is stamped
            // with it.
            let mut wait_span = ode_trace::span(ode_trace::SpanKind::LockWait, "");
            wait_span.payload(txn.0, (mode == LockMode::Exclusive) as u64);
            self.metrics.emit(|| FlightEvent::LockWait {
                txn: txn.0,
                exclusive: mode == LockMode::Exclusive,
            });
            tables.waiting.insert(txn, (key, mode));
            wait_span
        };

        let started = Instant::now();
        let result = loop {
            // Consistent multi-stripe pass: grant if possible, otherwise
            // look for a waits-for cycle through us.
            match self.sweep(idx, txn, key, mode) {
                Sweep::Granted => {
                    acquired.inc();
                    break Ok(());
                }
                Sweep::Victim => {
                    self.metrics.lock_deadlock_victims.inc();
                    self.metrics
                        .emit(|| FlightEvent::DeadlockVictim { txn: txn.0 });
                    self.metrics.dump_flight(format!(
                        "deadlock victim txn={txn:?} key={key:?} mode={mode:?}"
                    ));
                    break Err(StorageError::Deadlock(txn));
                }
                Sweep::KeepWaiting => {}
            }
            let mut tables = self.lock_stripe(idx);
            if Self::try_grant_waiter(&mut tables, txn, key, mode) {
                acquired.inc();
                break Ok(());
            }
            let timed_out = self.stripes[idx]
                .cv
                .wait_for(&mut tables, Duration::from_millis(20))
                .timed_out();
            if Self::try_grant_waiter(&mut tables, txn, key, mode) {
                acquired.inc();
                break Ok(());
            }
            if timed_out && started.elapsed() >= self.timeout {
                // Cold path: preserve a structured flight dump whose
                // reason names every contending transaction (holders and
                // waiters). ODE_LOCK_DEBUG only toggles the stderr echo
                // inside dump_flight.
                let holders: Vec<_> = tables
                    .locks
                    .get(&key)
                    .map(|s| s.holders.iter().map(|(t, m)| (*t, *m)).collect())
                    .unwrap_or_default();
                tables.waiting.remove(&txn);
                drop(tables);
                // Other stripes' waiters are snapshotted without holding
                // our stripe (stripe mutexes are only ever nested in full
                // index order, never pairwise).
                let waiting = self.waiting_snapshot();
                self.metrics.dump_flight(format!(
                    "lock timeout txn={txn:?} key={key:?} mode={mode:?} holders={holders:?} waiting={waiting:?}"
                ));
                break Err(StorageError::LockTimeout(txn));
            }
        };
        drop(wait_span);
        let waited = started.elapsed().as_micros() as u64;
        self.metrics.lock_wait_micros.record(waited);
        result
    }

    /// If the blocked request became grantable, grant it and clear its
    /// wait entry (all under the caller's stripe guard).
    fn try_grant_waiter(tables: &mut Tables, txn: TxnId, key: LockKey, mode: LockMode) -> bool {
        if tables
            .locks
            .get(&key)
            .is_none_or(|s| s.compatible(txn, mode))
        {
            Self::grant(tables, txn, key, mode);
            tables.waiting.remove(&txn);
            true
        } else {
            false
        }
    }

    /// One detection pass for a blocked request: acquire *every* stripe in
    /// index order (total order ⇒ no deadlock between passes), then — with
    /// the whole waits-for graph frozen — either grant the request, pick it
    /// as a deadlock victim, or conclude it must keep waiting.
    ///
    /// Victim selection stays "exactly one per cycle" because the victim
    /// removes its wait entry while still holding all stripes: the next
    /// pass, serialized behind this one, sees the cycle already broken.
    fn sweep(&self, own: usize, txn: TxnId, key: LockKey, mode: LockMode) -> Sweep {
        let mut guards: Vec<MutexGuard<'_, Tables>> =
            self.stripes.iter().map(|s| s.tables.lock()).collect();
        if Self::try_grant_waiter(&mut guards[own], txn, key, mode) {
            return Sweep::Granted;
        }
        // DFS over the waits-for graph: waiter -> holders blocking it.
        let mut stack = vec![txn];
        let mut seen = IntSet::default();
        while let Some(t) = stack.pop() {
            let Some(&(wkey, wmode)) = guards.iter().find_map(|g| g.waiting.get(&t)) else {
                continue;
            };
            let kidx = self.stripe_of(&wkey);
            let Some(state) = guards[kidx].locks.get(&wkey) else {
                continue;
            };
            let blockers = state.blockers(t, wmode);
            for blocker in blockers {
                if blocker == txn {
                    guards[own].waiting.remove(&txn);
                    return Sweep::Victim;
                }
                if seen.insert(blocker) {
                    stack.push(blocker);
                }
            }
        }
        Sweep::KeepWaiting
    }

    /// Every (txn, key, mode) wait entry across all stripes, for timeout
    /// dumps. Stripes are snapshotted one at a time.
    fn waiting_snapshot(&self) -> Vec<(TxnId, (LockKey, LockMode))> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            let tables = stripe.tables.lock();
            out.extend(tables.waiting.iter().map(|(t, w)| (*t, *w)));
        }
        out
    }

    fn grant(tables: &mut Tables, txn: TxnId, key: LockKey, mode: LockMode) {
        let state = tables.locks.entry(key).or_default();
        state.holders.insert(txn, mode);
        tables.held.entry(txn).or_default().insert(key);
    }

    /// The mode `txn` holds on `key`, if any.
    pub fn held(&self, txn: TxnId, key: LockKey) -> Option<LockMode> {
        self.lock_stripe(self.stripe_of(&key))
            .locks
            .get(&key)
            .and_then(|s| s.holders.get(&txn))
            .copied()
    }

    /// Release every lock `txn` holds (end of transaction — strict 2PL).
    /// Returns the number of locks released. See the module docs for how
    /// this ordering relates to commit durability.
    pub fn unlock_all(&self, txn: TxnId) -> usize {
        // Pop the footprint first and *drop the shard guard* before
        // touching any stripe (see note_stripe for the ordering rule).
        // Only the stripes the transaction actually requested locks in
        // are visited — release stays O(own stripes), not O(all stripes).
        let Some(mask) = self.footprints[txn.0 as usize & self.fp_mask]
            .lock()
            .remove(&txn)
        else {
            return 0;
        };
        let mut released = 0;
        for idx in mask.iter().enumerate().flat_map(|(w, bits)| {
            (0..64)
                .filter(move |b| bits & (1 << b) != 0)
                .map(move |b| w * 64 + b)
        }) {
            let stripe = &self.stripes[idx];
            let mut tables = self.lock_stripe(idx);
            let Some(keys) = tables.held.remove(&txn) else {
                continue;
            };
            let mut freed_any = false;
            for key in keys {
                if let Some(state) = tables.locks.get_mut(&key) {
                    state.holders.remove(&txn);
                    released += 1;
                    freed_any = true;
                    if state.holders.is_empty() {
                        tables.locks.remove(&key);
                    }
                }
            }
            drop(tables);
            if freed_any {
                stripe.cv.notify_all();
            }
        }
        released
    }

    /// Snapshot of the counters — a view over the engine-wide registry
    /// minus the last [`LockManager::reset_stats`] baseline.
    pub fn stats(&self) -> LockStats {
        let snap = self.metrics.snapshot();
        let base = *self.stats_baseline.lock();
        let d = |now: u64, then: u64| now.saturating_sub(then);
        LockStats {
            immediate_grants: d(snap.lock_immediate_grants, base.immediate_grants),
            waits: d(
                snap.lock_shared_waits + snap.lock_exclusive_waits,
                base.waits,
            ),
            deadlocks: d(snap.lock_deadlock_victims, base.deadlocks),
            upgrades: d(snap.lock_upgrades, base.upgrades),
            wait_micros: d(snap.lock_wait_micros.sum, base.wait_micros),
        }
    }

    /// Reset counters (benchmarks call this between phases). Rebases the
    /// [`LockManager::stats`] view; the shared registry is left untouched.
    /// Callers that also `Metrics::reset` the registry must do so *before*
    /// this, or the baseline will be ahead of the counters.
    pub fn reset_stats(&self) {
        let snap = self.metrics.snapshot();
        *self.stats_baseline.lock() = LockStats {
            immediate_grants: snap.lock_immediate_grants,
            waits: snap.lock_shared_waits + snap.lock_exclusive_waits,
            deadlocks: snap.lock_deadlock_victims,
            upgrades: snap.lock_upgrades,
            wait_micros: snap.lock_wait_micros.sum,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const T3: TxnId = TxnId(3);

    fn key(n: u64) -> LockKey {
        LockKey::Object(n)
    }

    /// The full lock-manager suite, instantiated per stripe count so the
    /// single-stripe (legacy) configuration and the striped one are both
    /// exercised end to end.
    macro_rules! lock_suite {
        ($name:ident, $stripes:expr) => {
            mod $name {
                use super::*;

                fn manager(timeout: Duration) -> LockManager {
                    LockManager::with_config(timeout, Arc::new(Metrics::new()), $stripes)
                }

                #[test]
                fn stripe_count_is_configured() {
                    let lm = manager(Duration::from_secs(10));
                    assert_eq!(lm.stripe_count(), ($stripes as usize).next_power_of_two());
                }

                #[test]
                fn shared_locks_coexist() {
                    let lm = manager(Duration::from_secs(10));
                    lm.lock(T1, key(1), LockMode::Shared).unwrap();
                    lm.lock(T2, key(1), LockMode::Shared).unwrap();
                    assert_eq!(lm.held(T1, key(1)), Some(LockMode::Shared));
                    assert_eq!(lm.held(T2, key(1)), Some(LockMode::Shared));
                    assert_eq!(lm.stats().waits, 0);
                    assert_eq!(lm.stats().immediate_grants, 2);
                }

                #[test]
                fn exclusive_blocks_and_releases() {
                    let lm = Arc::new(manager(Duration::from_secs(10)));
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    let lm2 = Arc::clone(&lm);
                    let handle =
                        std::thread::spawn(move || lm2.lock(T2, key(1), LockMode::Exclusive));
                    std::thread::sleep(Duration::from_millis(50));
                    assert!(!handle.is_finished(), "T2 should be blocked");
                    lm.unlock_all(T1);
                    handle.join().unwrap().unwrap();
                    assert_eq!(lm.held(T2, key(1)), Some(LockMode::Exclusive));
                    assert_eq!(lm.stats().waits, 1);
                }

                #[test]
                fn reacquire_is_noop() {
                    let lm = manager(Duration::from_secs(10));
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    lm.lock(T1, key(1), LockMode::Shared).unwrap(); // weaker: still fine
                    assert_eq!(lm.held(T1, key(1)), Some(LockMode::Exclusive));
                }

                #[test]
                fn upgrade_when_sole_holder() {
                    let lm = manager(Duration::from_secs(10));
                    lm.lock(T1, key(1), LockMode::Shared).unwrap();
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    assert_eq!(lm.held(T1, key(1)), Some(LockMode::Exclusive));
                    assert_eq!(lm.stats().upgrades, 1);
                }

                #[test]
                fn deadlock_detected() {
                    let lm = Arc::new(manager(Duration::from_secs(30)));
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    lm.lock(T2, key(2), LockMode::Exclusive).unwrap();
                    let lm2 = Arc::clone(&lm);
                    // T2 waits for key 1 (held by T1).
                    let handle = std::thread::spawn(move || {
                        let r = lm2.lock(T2, key(1), LockMode::Exclusive);
                        lm2.unlock_all(T2);
                        r
                    });
                    std::thread::sleep(Duration::from_millis(50));
                    // T1 now waits for key 2 (held by T2) -> cycle. Either
                    // side may be the victim; release T1's locks before
                    // joining so a surviving T2 isn't left waiting on them.
                    let r1 = lm.lock(T1, key(2), LockMode::Exclusive);
                    lm.unlock_all(T1);
                    let r2 = handle.join().unwrap();
                    let d1 = matches!(r1, Err(StorageError::Deadlock(_)));
                    let d2 = matches!(r2, Err(StorageError::Deadlock(_)));
                    assert!(d1 || d2, "at least one victim: {r1:?} {r2:?}");
                    assert!(lm.stats().deadlocks >= 1);
                }

                #[test]
                fn upgrade_deadlock_detected() {
                    // Classic S+S then both upgrade: a cycle through the
                    // same key.
                    let lm = Arc::new(manager(Duration::from_secs(30)));
                    lm.lock(T1, key(1), LockMode::Shared).unwrap();
                    lm.lock(T2, key(1), LockMode::Shared).unwrap();
                    let lm2 = Arc::clone(&lm);
                    let handle = std::thread::spawn(move || {
                        let r = lm2.lock(T2, key(1), LockMode::Exclusive);
                        if r.is_err() {
                            lm2.unlock_all(T2);
                        }
                        r
                    });
                    std::thread::sleep(Duration::from_millis(50));
                    let r1 = lm.lock(T1, key(1), LockMode::Exclusive);
                    if r1.is_err() {
                        lm.unlock_all(T1);
                    }
                    let r2 = handle.join().unwrap();
                    assert!(
                        matches!(r1, Err(StorageError::Deadlock(_)))
                            || matches!(r2, Err(StorageError::Deadlock(_))),
                        "upgrade deadlock must pick a victim: {r1:?} {r2:?}"
                    );
                }

                #[test]
                fn timeout_fires_without_deadlock() {
                    let lm = Arc::new(manager(Duration::from_millis(100)));
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    let r = lm.lock(T2, key(1), LockMode::Shared);
                    assert!(matches!(r, Err(StorageError::LockTimeout(_))));
                }

                #[test]
                fn unlock_all_releases_everything() {
                    let lm = manager(Duration::from_secs(10));
                    lm.lock(T1, key(1), LockMode::Shared).unwrap();
                    lm.lock(T1, key(2), LockMode::Exclusive).unwrap();
                    lm.lock(T1, LockKey::Roots, LockMode::Exclusive).unwrap();
                    assert_eq!(lm.unlock_all(T1), 3);
                    assert_eq!(lm.held(T1, key(1)), None);
                    assert_eq!(lm.held(T1, key(2)), None);
                    assert_eq!(lm.held(T1, LockKey::Roots), None);
                }

                #[test]
                fn wait_time_is_recorded() {
                    let lm = Arc::new(manager(Duration::from_secs(10)));
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    let lm2 = Arc::clone(&lm);
                    let handle = std::thread::spawn(move || lm2.lock(T2, key(1), LockMode::Shared));
                    std::thread::sleep(Duration::from_millis(60));
                    lm.unlock_all(T1);
                    handle.join().unwrap().unwrap();
                    assert!(lm.stats().wait_micros >= 40_000);
                    // The wait also lands in the engine-wide latency
                    // histogram.
                    let h = lm.metrics.lock_wait_micros.snapshot();
                    assert_eq!(h.count, 1);
                    assert!(h.sum >= 40_000);
                    assert!(h.p99() >= 40_000);
                }

                #[test]
                fn cross_stripe_three_txn_cycle_picks_exactly_one_victim() {
                    // A 3-transaction cycle whose keys land on *different*
                    // stripes (when there is more than one): detection must
                    // still see the whole cycle and abort exactly one
                    // victim; the survivors proceed once it releases.
                    let lm = Arc::new(manager(Duration::from_secs(30)));
                    // Find three object keys on three distinct stripes
                    // (any keys do when there is only one stripe).
                    let mut ks = vec![key(1)];
                    let mut n = 2u64;
                    while ks.len() < 3 && n < 10_000 {
                        let candidate = key(n);
                        if lm.stripe_count() == 1
                            || ks
                                .iter()
                                .all(|k| lm.stripe_of(k) != lm.stripe_of(&candidate))
                        {
                            ks.push(candidate);
                        }
                        n += 1;
                    }
                    assert_eq!(ks.len(), 3, "could not find 3 distinct stripes");
                    if lm.stripe_count() > 1 {
                        let stripes: HashSet<usize> = ks.iter().map(|k| lm.stripe_of(k)).collect();
                        assert_eq!(stripes.len(), 3, "keys must span three stripes");
                    }

                    let txns = [T1, T2, T3];
                    for (i, &t) in txns.iter().enumerate() {
                        lm.lock(t, ks[i], LockMode::Exclusive).unwrap();
                    }
                    let barrier = Arc::new(std::sync::Barrier::new(3));
                    let handles: Vec<_> = (0..3)
                        .map(|i| {
                            let lm = Arc::clone(&lm);
                            let barrier = Arc::clone(&barrier);
                            let t = txns[i];
                            let want = ks[(i + 1) % 3];
                            std::thread::spawn(move || {
                                barrier.wait();
                                let r = lm.lock(t, want, LockMode::Exclusive);
                                // Victim or winner, release everything so
                                // the others can finish.
                                lm.unlock_all(t);
                                r
                            })
                        })
                        .collect();
                    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
                    let victims = results
                        .iter()
                        .filter(|r| matches!(r, Err(StorageError::Deadlock(_))))
                        .count();
                    assert_eq!(victims, 1, "exactly one victim: {results:?}");
                    assert_eq!(
                        results.iter().filter(|r| r.is_ok()).count(),
                        2,
                        "survivors must be granted after the victim aborts: {results:?}"
                    );
                    assert_eq!(lm.stats().deadlocks, 1);
                }

                #[test]
                fn lock_timeout_dumps_flight_log_with_both_txn_ids() {
                    let metrics = Arc::new(Metrics::new());
                    let lm = LockManager::with_config(
                        Duration::from_millis(100),
                        Arc::clone(&metrics),
                        $stripes,
                    );
                    lm.lock(T1, key(7), LockMode::Exclusive).unwrap();
                    let r = lm.lock(T2, key(7), LockMode::Shared);
                    assert!(matches!(r, Err(StorageError::LockTimeout(_))));
                    let dumps = metrics.flight_dumps();
                    assert_eq!(dumps.len(), 1, "timeout must preserve exactly one dump");
                    let dump = &dumps[0];
                    assert!(dump.reason.contains("lock timeout"), "{}", dump.reason);
                    // Both contending transactions are identified: the
                    // waiter in the reason header, the holder in the
                    // holders list.
                    assert!(
                        dump.reason.contains("TxnId(2)"),
                        "waiter missing: {}",
                        dump.reason
                    );
                    assert!(
                        dump.reason.contains("TxnId(1)"),
                        "holder missing: {}",
                        dump.reason
                    );
                    // The flight log itself carries the waiter's LockWait
                    // record.
                    assert!(dump
                        .records
                        .iter()
                        .any(|r| matches!(r.event, ode_obs::FlightEvent::LockWait { txn: 2, .. })));
                }

                #[test]
                fn deadlock_victim_dumps_flight_log() {
                    let metrics = Arc::new(Metrics::new());
                    let lm = Arc::new(LockManager::with_config(
                        Duration::from_secs(30),
                        Arc::clone(&metrics),
                        $stripes,
                    ));
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    lm.lock(T2, key(2), LockMode::Exclusive).unwrap();
                    let lm2 = Arc::clone(&lm);
                    let handle = std::thread::spawn(move || {
                        let r = lm2.lock(T2, key(1), LockMode::Exclusive);
                        lm2.unlock_all(T2);
                        r
                    });
                    std::thread::sleep(Duration::from_millis(50));
                    let r1 = lm.lock(T1, key(2), LockMode::Exclusive);
                    lm.unlock_all(T1);
                    let r2 = handle.join().unwrap();
                    assert!(r1.is_err() || r2.is_err());
                    let dumps = metrics.flight_dumps();
                    assert!(!dumps.is_empty(), "victim selection must preserve a dump");
                    assert!(dumps[0].reason.contains("deadlock victim"));
                }

                #[test]
                fn reset_stats_rebases_the_view() {
                    let lm = manager(Duration::from_secs(10));
                    lm.lock(T1, key(1), LockMode::Shared).unwrap();
                    lm.lock(T1, key(1), LockMode::Exclusive).unwrap();
                    assert_eq!(lm.stats().upgrades, 1);
                    lm.reset_stats();
                    assert_eq!(lm.stats(), LockStats::default());
                    lm.lock(T2, key(2), LockMode::Shared).unwrap();
                    assert_eq!(lm.stats().immediate_grants, 1);
                    // The registry itself was never reset.
                    assert!(lm.metrics.lock_immediate_grants.get() >= 3);
                }
            }
        };
    }

    // Stripe count 1 puts every key on one stripe: the identical suite
    // must pass there as on the striped default.
    lock_suite!(striped_default, DEFAULT_LOCK_STRIPES);
    lock_suite!(single_stripe, 1);

    #[test]
    fn stripe_count_rounds_up_to_power_of_two() {
        let lm = LockManager::with_config(Duration::from_secs(1), Arc::new(Metrics::new()), 3);
        assert_eq!(lm.stripe_count(), 4);
        let lm = LockManager::with_config(Duration::from_secs(1), Arc::new(Metrics::new()), 0);
        assert_eq!(lm.stripe_count(), 1);
    }

    #[test]
    fn keys_spread_over_stripes() {
        let lm = LockManager::default();
        let used: HashSet<usize> = (0..1024u64).map(|n| lm.stripe_of(&key(n))).collect();
        // 1024 sequential Oids must not collapse onto a few stripes.
        assert!(
            used.len() >= lm.stripe_count() / 2,
            "only {} of {} stripes used",
            used.len(),
            lm.stripe_count()
        );
    }

    #[test]
    fn contended_stripes_are_counted() {
        let metrics = Arc::new(Metrics::new());
        let lm = Arc::new(LockManager::with_config(
            Duration::from_secs(10),
            Arc::clone(&metrics),
            1, // one stripe: every thread collides on it
        ));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        let txn = TxnId(100 + t);
                        lm.lock(txn, key(t * 10_000 + i), LockMode::Shared).unwrap();
                        lm.unlock_all(txn);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = metrics.snapshot();
        assert!(
            snap.lock_stripe_contention > 0,
            "4 threads on 1 stripe must contend"
        );
        assert_eq!(
            snap.shard_acquire_nanos.count, snap.lock_stripe_contention,
            "every contended acquisition records one histogram sample"
        );
    }
}
