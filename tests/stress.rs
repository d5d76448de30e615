//! Concurrency stress: many threads mixing object writes, trigger
//! activations/deactivations, event postings, and aborts — then a full
//! integrity verification. Deadlock victims (which the §6 lock
//! amplification makes routine) are retried.

use bytes::BytesMut;
use ode::core::ClassBuilder;
use ode::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

#[derive(Debug, Clone)]
struct Account {
    balance: i64,
    ops: u32,
}
impl Encode for Account {
    fn encode(&self, buf: &mut BytesMut) {
        self.balance.encode(buf);
        self.ops.encode(buf);
    }
}
impl Decode for Account {
    fn decode(buf: &mut &[u8]) -> ode::storage::Result<Self> {
        Ok(Account {
            balance: i64::decode(buf)?,
            ops: u32::decode(buf)?,
        })
    }
}
impl OdeObject for Account {
    const CLASS: &'static str = "Account";
}

/// Transactions per thread: enough that every thread is still running
/// when the others start, so requests really block (about 0.5 s for the
/// default 4 threads in a debug build, 1 s for 16 in release).
const ROUNDS: usize = 2000;
const ACCOUNTS: usize = 6;

/// Thread count, overridable so CI can crank the contention up
/// (`ODE_STRESS_THREADS=16`) without slowing the default local run.
fn threads() -> usize {
    std::env::var("ODE_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

#[test]
fn concurrent_mixed_workload_stays_consistent() {
    let threads = threads();
    let db = Arc::new(Database::volatile());
    let fired = Arc::new(AtomicU32::new(0));
    let f = Arc::clone(&fired);
    let td = ClassBuilder::new("Account")
        .after_event("Touch")
        .user_event("Mark")
        .trigger(
            "TouchThenMark",
            "after Touch, Mark",
            CouplingMode::Immediate,
            Perpetual::Yes,
            move |_| {
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();

    let accounts: Vec<PersistentPtr<Account>> = db
        .with_txn(|txn| {
            (0..ACCOUNTS)
                .map(|_| db.pnew(txn, &Account { balance: 0, ops: 0 }))
                .collect()
        })
        .unwrap();
    let accounts = Arc::new(accounts);

    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&db);
            let accounts = Arc::clone(&accounts);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Deterministic per-thread mix over the shared accounts.
                for r in 0..ROUNDS {
                    let acc = accounts[(t * 7 + r) % ACCOUNTS];
                    let kind = (t + r) % 5;
                    let result = db.with_txn_retry(10_000, |txn| match kind {
                        0 => {
                            // Plain money movement.
                            db.update_with(txn, acc, |a| {
                                a.balance += 1;
                                a.ops += 1;
                            })
                        }
                        1 => {
                            // Activate a trigger (possibly many pile up).
                            db.activate(txn, acc, "TouchThenMark", &())?;
                            Ok(())
                        }
                        2 => {
                            // Post the arming + completing events.
                            db.invoke(txn, acc, "Touch", |a: &mut Account| {
                                a.ops += 1;
                                Ok(())
                            })?;
                            db.post_user_event(txn, acc, "Mark")
                        }
                        3 => {
                            // Deactivate everything on the object.
                            db.deactivate_all(txn, acc.oid())?;
                            Ok(())
                        }
                        _ => {
                            // Do work, then change our mind.
                            db.update_with(txn, acc, |a| a.balance += 1_000_000)?;
                            Err(OdeError::tabort("never mind"))
                        }
                    });
                    match result {
                        Ok(()) => {}
                        Err(e) if e.is_abort() => {} // our own tabort branch
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    db.with_txn(|txn| {
        // Structural invariants hold after the storm.
        let report = db.verify_integrity(txn)?;
        assert!(report.is_healthy(), "issues: {:#?}", report.issues);
        // The tabort branch never leaked its million.
        for &acc in accounts.iter() {
            let a = db.read(txn, acc)?;
            assert!(
                a.balance < 1_000_000,
                "aborted update leaked: {}",
                a.balance
            );
            assert!(a.balance >= 0);
        }
        Ok(())
    })
    .unwrap();
    // The lock manager saw real contention: at least one request had to
    // block or was chosen as a deadlock victim.
    let stats = db.storage().lock_stats();
    println!(
        "stress: {threads} threads x {ROUNDS} rounds: waits {} deadlocks {} upgrades {} immediate_grants {}",
        stats.waits, stats.deadlocks, stats.upgrades, stats.immediate_grants
    );
    assert!(stats.immediate_grants > 0);
    if threads > 1 {
        assert!(
            stats.waits + stats.deadlocks > 0,
            "no request ever blocked: the threads never overlapped"
        );
    }
}
