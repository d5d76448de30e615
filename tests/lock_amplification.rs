//! Experiment E4 (functional half): "triggers turn read access into write
//! access, increasing both the amount of time the transactions spend
//! waiting for locks and the likelihood of deadlock" (§6).
//!
//! Two concurrent transactions that only *read* (via a declared member
//! event) the same object coexist fine without triggers — shared locks are
//! compatible. With an active trigger, each read advances the trigger's
//! FSM, which writes the trigger-state record; the S→X pattern on the
//! shared state collides, producing waits and deadlock victims. The bench
//! `lock_amplification` measures the magnitude; this test pins down the
//! mechanism.

use bytes::BytesMut;
use ode::core::ClassBuilder;
use ode::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

#[derive(Debug, Clone)]
struct Gauge {
    value: i64,
}
impl Encode for Gauge {
    fn encode(&self, buf: &mut BytesMut) {
        self.value.encode(buf);
    }
}
impl Decode for Gauge {
    fn decode(buf: &mut &[u8]) -> ode::storage::Result<Self> {
        Ok(Gauge {
            value: i64::decode(buf)?,
        })
    }
}
impl OdeObject for Gauge {
    const CLASS: &'static str = "Gauge";
}

fn gauge_class(db: &Database, with_trigger: bool) {
    let mut builder = ClassBuilder::new("Gauge")
        .after_event("Peek")
        .user_event("Seal");
    if with_trigger {
        builder = builder.trigger(
            // The Peek arms the machine, the Seal completes it, so the
            // persistent FSM state toggles on every posting — each one is
            // the §6 "read that becomes a write".
            "Watch",
            "after Peek, Seal",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |_| Ok(()),
        );
    }
    let td = builder.build(db.registry()).unwrap();
    db.register_class(&td).unwrap();
}

/// Rounds of the two-reader schedule in [`run_concurrent_peeks`].
const ROUNDS: usize = 20;

/// Two readers, `ROUNDS` rounds. In each round both open a transaction,
/// Peek the shared gauge (and, when armed, post the Seal that completes
/// the trigger), then meet at a barrier *before* either commits, so both
/// hold their locks inside the same window every round — the schedule
/// does not depend on how the host happens to interleave the threads.
/// A second barrier ends the round once both have committed or aborted,
/// so a deadlock victim cannot start its next round and re-take a shared
/// lock ahead of the survivor's pending upgrade.
fn run_concurrent_peeks(
    with_trigger: bool,
) -> (
    ode::storage::lock::LockStats,
    ode::obs::MetricsSnapshot,
    u32,
) {
    let db = Arc::new(Database::volatile());
    gauge_class(&db, with_trigger);
    let gauge = db
        .with_txn(|txn| {
            let g = db.pnew(txn, &Gauge { value: 0 })?;
            if with_trigger {
                db.activate(txn, g, "Watch", &())?;
            }
            Ok(g)
        })
        .unwrap();

    // Registry first, then the LockStats view: the view is a baseline
    // subtracted from the registry, so rebasing it must see the registry's
    // post-reset (zero) counters.
    db.metrics().reset();
    db.storage().reset_lock_stats();
    let aborts = Arc::new(AtomicU32::new(0));
    let in_window = Arc::new(Barrier::new(2));
    let round_done = Arc::new(Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let db = Arc::clone(&db);
            let aborts = Arc::clone(&aborts);
            let in_window = Arc::clone(&in_window);
            let round_done = Arc::clone(&round_done);
            std::thread::spawn(move || {
                // Errors are collected, not asserted here: a panicking
                // thread would leave its partner parked on a barrier.
                let mut unexpected = Vec::new();
                for _ in 0..ROUNDS {
                    let result = db.with_txn(|txn| {
                        db.invoke(txn, gauge, "Peek", |_g: &mut Gauge| Ok(()))?;
                        if with_trigger {
                            db.post_user_event(txn, gauge, "Seal")?;
                        }
                        in_window.wait();
                        Ok(())
                    });
                    round_done.wait();
                    match result {
                        Ok(()) => {}
                        Err(e) if e.is_abort() => {
                            aborts.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => unexpected.push(e.to_string()),
                    }
                }
                unexpected
            })
        })
        .collect();
    for t in threads {
        let unexpected = t.join().unwrap();
        assert!(
            unexpected.is_empty(),
            "only deadlock aborts expected: {unexpected:?}"
        );
    }
    (
        db.storage().lock_stats(),
        db.stats(),
        aborts.load(Ordering::SeqCst),
    )
}

#[test]
fn concurrent_readers_without_triggers_never_conflict() {
    let (stats, snap, aborts) = run_concurrent_peeks(false);
    assert_eq!(stats.deadlocks, 0);
    assert_eq!(aborts, 0);
    // Reads are shared: no upgrades needed — in the legacy per-manager
    // stats and in the engine-wide metrics registry alike.
    assert_eq!(stats.upgrades, 0);
    assert_eq!(snap.lock_upgrades, 0);
    assert_eq!(snap.lock_deadlock_victims, 0);
    // The workload still *did* something observable.
    assert!(snap.lock_shared_acquisitions > 0);
    assert!(snap.events_posted > 0);
}

/// The MVCC escape hatch from §6: a *snapshot* reader never enters the
/// lock manager, so armed triggers cannot amplify it into a writer. 16
/// concurrent read-only transactions over the monitored object record
/// zero waits, zero deadlock retries, and zero S→X upgrades — in fact
/// zero lock-manager traffic of any kind.
#[test]
fn snapshot_readers_take_no_locks_even_with_triggers_armed() {
    let db = Arc::new(Database::volatile());
    gauge_class(&db, true);
    let gauge = db
        .with_txn(|txn| {
            let g = db.pnew(txn, &Gauge { value: 7 })?;
            db.activate(txn, g, "Watch", &())?;
            Ok(g)
        })
        .unwrap();

    db.metrics().reset();
    db.storage().reset_lock_stats();
    let barrier = Arc::new(Barrier::new(16));
    let threads: Vec<_> = (0..16)
        .map(|_| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..200 {
                    // No retry wrapper: snapshot readers cannot deadlock,
                    // so any error here is a real failure.
                    let g = db
                        .with_read_txn(|txn| db.read::<Gauge>(txn, gauge))
                        .unwrap();
                    assert_eq!(g.value, 7);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let stats = db.storage().lock_stats();
    let snap = db.stats();
    // Zero lock-manager traffic: not merely "no conflicts" but no grants
    // at all — the reads were served from the version chains / latched
    // pages, so there was nothing to wait on, upgrade, or deadlock over.
    assert_eq!(
        stats.immediate_grants, 0,
        "readers entered the lock manager"
    );
    assert_eq!(stats.waits, 0);
    assert_eq!(stats.deadlocks, 0);
    assert_eq!(stats.upgrades, 0);
    assert_eq!(snap.lock_shared_acquisitions, 0);
    assert_eq!(snap.lock_upgrades, 0);
    assert_eq!(snap.lock_deadlock_victims, 0);
    assert_eq!(snap.lock_wait_micros.count, 0);
    // The workload really ran, and it ran on the snapshot path.
    assert!(snap.snapshot_reads >= 16 * 200);
}

#[test]
fn triggers_amplify_reads_into_write_conflicts() {
    let (stats, snap, aborts) = run_concurrent_peeks(true);
    // Every posting advances the persistent FSM state, whose
    // read-modify-write is an S→X upgrade.
    assert!(stats.upgrades > 0, "expected S→X upgrades, got {stats:?}");
    assert_eq!(
        snap.lock_upgrades, stats.upgrades,
        "metrics registry and LockStats count the same upgrade sites"
    );
    // Both counters were reset together, so victims agree too.
    assert_eq!(snap.lock_deadlock_victims, stats.deadlocks);
    // The trigger machinery forces writes on behalf of reads: with both
    // readers inside the lock window, waits and/or deadlock aborts appear.
    assert!(
        stats.waits > 0 || stats.deadlocks > 0 || aborts > 0,
        "expected lock amplification, got {stats:?} aborts={aborts}"
    );
}
