//! A runaway immediate cascade fails its statement instead of overflowing
//! the stack. The test lives in a file of its own: without the depth
//! limit, the overflow aborts the whole test process, not one test.

use ode_core::post::MAX_CASCADE_DEPTH;
use ode_core::{
    ClassBuilder, CouplingMode, Database, OdeClass, OdeError, Perpetual, PersistentPtr,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq, OdeClass)]
struct Pinger {
    n: u32,
}

/// A perpetual immediate trigger on `Ping` whose action posts `Ping` to
/// its own anchor: every firing nests the next one.
fn echo_class(db: &Database, fired: &Arc<AtomicUsize>) {
    let fired = Arc::clone(fired);
    let td = ClassBuilder::new("Pinger")
        .user_event("Ping")
        .trigger(
            "Echo",
            "Ping",
            CouplingMode::Immediate,
            Perpetual::Yes,
            move |ctx| {
                fired.fetch_add(1, Ordering::SeqCst);
                let me: PersistentPtr<Pinger> = ctx.anchor();
                ctx.db().post_user_event(ctx.txn(), me, "Ping")
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
}

#[test]
fn runaway_immediate_cascade_fails_the_statement_and_rolls_back() {
    let db = Database::volatile();
    let fired = Arc::new(AtomicUsize::new(0));
    echo_class(&db, &fired);
    let pinger = db
        .with_txn(|txn| {
            let p = db.pnew(txn, &Pinger { n: 0 })?;
            db.activate(txn, p, "Echo", &())?;
            Ok(p)
        })
        .unwrap();

    for round in 1..=2 {
        let err = db
            .with_txn(|txn| {
                db.update_with(txn, pinger, |p| p.n = 7)?;
                db.post_user_event(txn, pinger, "Ping")
            })
            .unwrap_err();
        assert!(
            matches!(err, OdeError::CascadeTooDeep { depth } if depth == MAX_CASCADE_DEPTH),
            "{err}"
        );
        // The limit counts nested actions and is released on the way
        // out: every round runs exactly the same number.
        assert_eq!(fired.load(Ordering::SeqCst), round * MAX_CASCADE_DEPTH);
    }

    // The transaction rolled back and the database stays usable: the
    // write is gone, the trigger is still armed, the structures agree.
    db.with_txn(|txn| {
        assert_eq!(db.read(txn, pinger)?, Pinger { n: 0 });
        assert_eq!(db.active_triggers(txn, pinger.oid())?.len(), 1);
        assert!(db.verify_integrity(txn)?.is_healthy());
        db.update_with(txn, pinger, |p| p.n = 1)
    })
    .unwrap();
    db.with_txn(|txn| {
        assert_eq!(db.read(txn, pinger)?, Pinger { n: 1 });
        Ok(())
    })
    .unwrap();
}
