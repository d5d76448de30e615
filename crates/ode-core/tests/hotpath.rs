//! Behavioural pins for the posting hot path: the txn-scoped
//! trigger-state cache, anchor dedup, and the lock-free statistics view.

use bytes::BytesMut;
use ode_core::{
    ClassBuilder, CouplingMode, Database, Decode, Encode, InterClassBuilder, OdeObject, Perpetual,
    TriggerId,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, PartialEq)]
struct Stock {
    price: f32,
    prev: f32,
}
impl Encode for Stock {
    fn encode(&self, buf: &mut BytesMut) {
        self.price.encode(buf);
        self.prev.encode(buf);
    }
}
impl Decode for Stock {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(Stock {
            price: f32::decode(buf)?,
            prev: f32::decode(buf)?,
        })
    }
}
impl OdeObject for Stock {
    const CLASS: &'static str = "Stock";
}

fn stock_class(db: &Database) -> Arc<ode_core::TypeDescriptor> {
    let td = ClassBuilder::new("Stock")
        .after_event("SetPrice")
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    td
}

fn set_price(db: &Database, txn: ode_core::TxnId, s: ode_core::PersistentPtr<Stock>, p: f32) {
    db.invoke(txn, s, "SetPrice", |stock: &mut Stock| {
        stock.prev = stock.price;
        stock.price = p;
        Ok(())
    })
    .unwrap();
}

/// Regression for the `Vec::dedup` misuse in activate/deactivate:
/// `dedup` only removes *adjacent* duplicates, so an inter-object
/// activation whose anchor list repeats an object non-adjacently
/// (`[a, b, a]`) used to double-index the state record under `a` —
/// advancing it twice per posting and leaving a dangling index entry
/// behind after deactivation.
#[test]
fn repeated_non_adjacent_anchor_is_indexed_once() {
    let db = Database::volatile();
    let stock = stock_class(&db);
    let fired = Arc::new(AtomicU32::new(0));
    let fired2 = Arc::clone(&fired);
    let tri = InterClassBuilder::new("TriWatch")
        .anchor("x", &stock)
        .anchor("y", &stock)
        .anchor("z", &stock)
        .trigger(
            "Watch",
            "after x.SetPrice, after y.SetPrice",
            CouplingMode::Immediate,
            Perpetual::Yes,
            move |_| {
                fired2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&tri).unwrap();

    let (a, b, id) = db
        .with_txn(|txn| {
            let a = db.pnew(
                txn,
                &Stock {
                    price: 1.0,
                    prev: 1.0,
                },
            )?;
            let b = db.pnew(
                txn,
                &Stock {
                    price: 1.0,
                    prev: 1.0,
                },
            )?;
            // `x` and `z` bind the same object, non-adjacently.
            let id = db.activate_inter(
                txn,
                "TriWatch",
                "Watch",
                &[("x", a.oid()), ("y", b.oid()), ("z", a.oid())],
                &(),
            )?;
            Ok((a, b, id))
        })
        .unwrap();

    db.with_txn(|txn| {
        assert_eq!(db.active_triggers(txn, a.oid())?.len(), 1, "indexed once");
        assert_eq!(db.active_triggers(txn, b.oid())?.len(), 1);
        let report = db.verify_integrity(txn)?;
        assert!(report.is_healthy(), "issues: {:#?}", report.issues);
        Ok(())
    })
    .unwrap();

    // One posting must advance the instance exactly once (the double
    // index made the two-step sequence complete on a single event).
    db.reset_trigger_stats();
    db.with_txn(|txn| {
        set_price(&db, txn, a, 2.0);
        Ok(())
    })
    .unwrap();
    assert_eq!(db.trigger_stats().fsm_advances, 1);
    assert_eq!(fired.load(Ordering::SeqCst), 0, "sequence is not complete");
    db.with_txn(|txn| {
        set_price(&db, txn, b, 2.0);
        Ok(())
    })
    .unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1);

    // Deactivation removes every entry (the bug left a dangling one
    // under the doubled anchor).
    db.with_txn(|txn| {
        assert!(db.deactivate(txn, id)?);
        assert!(db.active_triggers(txn, a.oid())?.is_empty());
        assert!(db.active_triggers(txn, b.oid())?.is_empty());
        let report = db.verify_integrity(txn)?;
        assert!(report.is_healthy(), "issues: {:#?}", report.issues);
        Ok(())
    })
    .unwrap();
}

/// An immediate action that deactivates a *sibling* trigger on the same
/// anchor, mid-posting: the sibling still fires for the event that was
/// already posted to it (fire-after-all-posted, from the captured copy),
/// but never again — no stale firing from the cache, no write-back of
/// the freed record at commit, and the flag byte clears once the last
/// trigger goes.
#[test]
fn action_deactivating_sibling_leaves_no_stale_state() {
    let db = Database::volatile();
    let victim_id: Arc<Mutex<Option<TriggerId>>> = Arc::new(Mutex::new(None));
    let victim_fired = Arc::new(AtomicU32::new(0));
    let assassin_fired = Arc::new(AtomicU32::new(0));

    let victim_id2 = Arc::clone(&victim_id);
    let victim_fired2 = Arc::clone(&victim_fired);
    let assassin_fired2 = Arc::clone(&assassin_fired);
    let td = ClassBuilder::new("Stock")
        .after_event("SetPrice")
        .trigger(
            "Assassin",
            "after SetPrice",
            CouplingMode::Immediate,
            Perpetual::Yes,
            move |ctx| {
                assassin_fired2.fetch_add(1, Ordering::SeqCst);
                if let Some(id) = victim_id2.lock().unwrap().take() {
                    ctx.db().deactivate(ctx.txn(), id)?;
                }
                Ok(())
            },
        )
        .trigger(
            "Victim",
            "after SetPrice",
            CouplingMode::Immediate,
            Perpetual::Yes,
            move |_| {
                victim_fired2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();

    let (s, assassin) = db
        .with_txn(|txn| {
            let s = db.pnew(
                txn,
                &Stock {
                    price: 1.0,
                    prev: 1.0,
                },
            )?;
            let assassin = db.activate(txn, s, "Assassin", &())?;
            let victim = db.activate(txn, s, "Victim", &())?;
            *victim_id.lock().unwrap() = Some(victim);
            Ok((s, assassin))
        })
        .unwrap();

    // Post 1: both advance before any action runs; the assassin then
    // deactivates the victim, whose own (already captured) firing still
    // runs for this event.
    db.with_txn(|txn| {
        set_price(&db, txn, s, 2.0);
        assert_eq!(db.active_triggers(txn, s.oid())?.len(), 1);
        Ok(())
    })
    .unwrap();
    assert_eq!(assassin_fired.load(Ordering::SeqCst), 1);
    assert_eq!(victim_fired.load(Ordering::SeqCst), 1);

    // Post 2 (fresh txn → fresh cache): the victim is gone for real —
    // its freed record must not have been resurrected by the commit
    // write-back.
    db.with_txn(|txn| {
        set_price(&db, txn, s, 3.0);
        let report = db.verify_integrity(txn)?;
        assert!(report.is_healthy(), "issues: {:#?}", report.issues);
        Ok(())
    })
    .unwrap();
    assert_eq!(assassin_fired.load(Ordering::SeqCst), 2);
    assert_eq!(victim_fired.load(Ordering::SeqCst), 1, "no stale firing");

    // Deactivate the assassin too: the anchor's flag byte must clear, so
    // the next posting short-circuits without a trigger lookup.
    db.with_txn(|txn| {
        assert!(db.deactivate(txn, assassin)?);
        Ok(())
    })
    .unwrap();
    db.reset_trigger_stats();
    db.with_txn(|txn| {
        set_price(&db, txn, s, 4.0);
        Ok(())
    })
    .unwrap();
    let stats = db.trigger_stats();
    assert_eq!(stats.index_skips, 1, "flag byte cleared → short-circuit");
    assert_eq!(stats.fsm_advances, 0);
    assert_eq!(assassin_fired.load(Ordering::SeqCst), 2);
}

/// The acceptance criterion for lock-free accounting: `trigger_stats()`
/// is a pure view over the atomic metrics registry — every field must
/// equal the corresponding counters in `Database::stats()`, and
/// rebasing the view leaves the registry untouched.
#[test]
fn trigger_stats_is_a_view_over_the_metrics_registry() {
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    let fired2 = Arc::clone(&fired);
    let td = ClassBuilder::new("Stock")
        .after_event("SetPrice")
        .mask("Dropped", |ctx| {
            let s: Stock = ctx.object()?;
            Ok(s.price < s.prev)
        })
        .trigger(
            "AlertOnDrop",
            "after SetPrice & Dropped()",
            CouplingMode::Immediate,
            Perpetual::Yes,
            move |_| {
                fired2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .trigger(
            "EndReport",
            "after SetPrice",
            CouplingMode::End,
            Perpetual::No,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();

    db.with_txn(|txn| {
        let s = db.pnew(
            txn,
            &Stock {
                price: 5.0,
                prev: 5.0,
            },
        )?;
        db.activate(txn, s, "AlertOnDrop", &())?;
        db.activate(txn, s, "EndReport", &())?;
        set_price(&db, txn, s, 4.0); // drop → immediate firing
        set_price(&db, txn, s, 6.0); // rise → mask false
        Ok(())
    })
    .unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1);

    let stats = db.trigger_stats();
    let snap = db.stats();
    assert_eq!(stats.events_posted, snap.events_posted);
    assert_eq!(stats.fsm_advances, snap.fsm_advances);
    assert_eq!(stats.mask_evaluations, snap.mask_evaluations);
    assert_eq!(stats.immediate_firings, snap.firings_immediate);
    assert_eq!(
        stats.deferred_firings,
        snap.firings_end + snap.firings_dependent + snap.firings_independent
    );
    assert_eq!(stats.activations, snap.trigger_activations);
    assert_eq!(stats.deactivations, snap.trigger_deactivations);
    assert_eq!(stats.detached_failures, snap.detached_failures);
    assert_eq!(stats.index_skips, snap.index_skips);
    // The workload actually exercised the counters.
    assert!(stats.events_posted > 0);
    assert!(stats.fsm_advances > 0);
    assert!(stats.mask_evaluations > 0);
    assert_eq!(stats.immediate_firings, 1);
    assert_eq!(stats.deferred_firings, 1, "EndReport ran at commit");
    // The cache saw both a first touch and steady-state hits.
    assert!(snap.state_cache_misses > 0 || snap.state_cache_hits > 0);

    // Rebasing zeroes the view but not the registry.
    db.reset_trigger_stats();
    let rebased = db.trigger_stats();
    assert_eq!(rebased.events_posted, 0);
    assert_eq!(rebased.fsm_advances, 0);
    assert_eq!(db.stats().events_posted, snap.events_posted);
}

/// Steady-state advances inside one transaction hit the cache and defer
/// the storage write to a single commit-time write-back.
#[test]
fn cache_batches_writebacks_per_transaction() {
    let db = Database::volatile();
    let td = ClassBuilder::new("Stock")
        .after_event("SetPrice")
        .trigger(
            "Toggle",
            "after SetPrice, after SetPrice",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();

    let s = db
        .with_txn(|txn| {
            let s = db.pnew(
                txn,
                &Stock {
                    price: 1.0,
                    prev: 1.0,
                },
            )?;
            db.activate(txn, s, "Toggle", &())?;
            Ok(s)
        })
        .unwrap();

    db.metrics().reset();
    db.with_txn(|txn| {
        for i in 0..10 {
            set_price(&db, txn, s, i as f32);
        }
        Ok(())
    })
    .unwrap();
    let snap = db.stats();
    assert_eq!(snap.fsm_advances, 10);
    assert_eq!(snap.state_cache_misses, 1, "decoded once per txn");
    assert_eq!(snap.state_cache_hits, 9);
    assert_eq!(snap.state_writebacks, 1, "one write-back at commit");
}
