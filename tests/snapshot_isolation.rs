//! Snapshot isolation over *armed triggers*: randomized reader/writer
//! interleavings (including deliberate and deadlock aborts) must never
//! expose a torn trigger statenum or a dirty read to a read-only
//! transaction.
//!
//! The writers maintain two invariants over every *committed* state:
//!
//! * the two counters are updated together, so `left == right` always;
//! * each committed posting cycle runs the `Watch` FSM all the way around
//!   (`Peek` arms it, `Seal` fires it), so the persistent `statenum` is
//!   always back at the perpetual machine's rest position — never the
//!   mid-cycle armed state.
//!
//! A snapshot reader observing `left != right`, an armed statenum, or a
//! value that changes between two reads of the same transaction has seen
//! an uncommitted or torn intermediate — exactly what MVCC must rule out.
//! Run at `StorageOptions::shards` 1 and 8: the engine ignores the value,
//! so the pair checks that neither setting changes behaviour until the
//! field is deleted (ROADMAP item 3).

use bytes::BytesMut;
use ode::core::{ClassBuilder, OdeError};
use ode::prelude::*;
use ode::storage::StorageOptions;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

#[derive(Debug, Clone)]
struct Meter {
    value: i64,
}
impl Encode for Meter {
    fn encode(&self, buf: &mut BytesMut) {
        self.value.encode(buf);
    }
}
impl Decode for Meter {
    fn decode(buf: &mut &[u8]) -> ode::storage::Result<Self> {
        Ok(Meter {
            value: i64::decode(buf)?,
        })
    }
}
impl OdeObject for Meter {
    const CLASS: &'static str = "Meter";
}

/// Tiny deterministic PRNG so the interleavings vary without a rand dep.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn meter_class(db: &Database) {
    let td = ClassBuilder::new("Meter")
        .after_event("Peek")
        .user_event("Seal")
        .trigger(
            "Watch",
            "after Peek, Seal",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
}

fn run_interleavings(shards: usize) {
    let db = Arc::new(Database::volatile_with(StorageOptions {
        shards,
        ..StorageOptions::memory()
    }));
    meter_class(&db);
    let (meter, left, right, watch) = db
        .with_txn(|txn| {
            let m = db.pnew(txn, &Meter { value: 0 })?;
            let l = db.pnew(txn, &Meter { value: 0 })?;
            let r = db.pnew(txn, &Meter { value: 0 })?;
            let id = db.activate(txn, m, "Watch", &())?;
            Ok((m, l, r, id))
        })
        .unwrap();

    // One committed warm-up cycle pins down the FSM position every
    // committed transaction returns to: the perpetual machine rests at
    // its accept state, distinct from the mid-cycle armed state that a
    // torn or dirty read would expose.
    db.with_txn(|txn| {
        db.invoke(txn, meter, "Peek", |_m: &mut Meter| Ok(()))?;
        db.post_user_event(txn, meter, "Seal")
    })
    .unwrap();
    let cycle_state = db
        .with_read_txn(|txn| db.trigger_statenum(txn, watch))
        .unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(8));
    let commits = Arc::new(AtomicU32::new(0));

    // 4 writer threads: full Peek+Seal trigger cycle plus a paired
    // counter bump, with randomized deliberate aborts at both torn
    // points (after the arm, after the first counter write).
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            let commits = Arc::clone(&commits);
            std::thread::spawn(move || {
                let mut rng = Lcg(0x9e3779b97f4a7c15 ^ w);
                barrier.wait();
                for _ in 0..120 {
                    let roll = rng.next() % 8;
                    let result = db.with_txn(|txn| {
                        db.invoke(txn, meter, "Peek", |_m: &mut Meter| Ok(()))?;
                        if roll == 0 {
                            // Abort with the FSM armed mid-cycle.
                            return Err(OdeError::Action("armed abort".into()));
                        }
                        db.post_user_event(txn, meter, "Seal")?;
                        db.update_with(txn, left, |m: &mut Meter| m.value += 1)?;
                        if roll == 1 {
                            // Abort between the paired counter writes.
                            return Err(OdeError::Action("torn abort".into()));
                        }
                        db.update_with(txn, right, |m: &mut Meter| m.value += 1)?;
                        Ok(())
                    });
                    match result {
                        Ok(()) => {
                            commits.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => {
                            // Deliberate aborts and deadlock victims only.
                            assert!(
                                e.is_abort() || matches!(e, OdeError::Action(_)),
                                "unexpected writer failure: {e}"
                            );
                        }
                    }
                }
            })
        })
        .collect();

    // 4 reader threads: every snapshot must be committed-consistent.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                barrier.wait();
                let mut checks = 0u32;
                while !done.load(Ordering::Acquire) {
                    let (l, r, statenum, l_again) = db
                        .with_read_txn(|txn| {
                            let l = db.read::<Meter>(txn, left)?.value;
                            let r = db.read::<Meter>(txn, right)?.value;
                            let statenum = db.trigger_statenum(txn, watch)?;
                            let l_again = db.read::<Meter>(txn, left)?.value;
                            Ok((l, r, statenum, l_again))
                        })
                        .unwrap();
                    assert_eq!(l, r, "torn counter pair leaked to a snapshot");
                    assert_eq!(statenum, cycle_state, "mid-cycle trigger statenum leaked");
                    assert_eq!(l, l_again, "snapshot read was not repeatable");
                    checks += 1;
                    std::thread::yield_now();
                }
                checks
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }

    // Final state: the counters equal the number of committed cycles and
    // a fresh snapshot agrees with a locking read.
    let committed = commits.load(Ordering::SeqCst) as i64;
    let (l, r, statenum) = db
        .with_read_txn(|txn| {
            Ok((
                db.read::<Meter>(txn, left)?.value,
                db.read::<Meter>(txn, right)?.value,
                db.trigger_statenum(txn, watch)?,
            ))
        })
        .unwrap();
    assert_eq!(l, committed);
    assert_eq!(r, committed);
    assert_eq!(statenum, cycle_state);
    let l_locked = db
        .with_txn(|txn| Ok(db.read::<Meter>(txn, left)?.value))
        .unwrap();
    assert_eq!(l_locked, committed);
    // Quiesced: the version store must have drained.
    assert_eq!(db.storage().version_stats().entries, 0);
}

#[test]
fn snapshots_never_tear_trigger_state_single_shard() {
    run_interleavings(1);
}

#[test]
fn snapshots_never_tear_trigger_state_eight_shards() {
    run_interleavings(8);
}
