//! The §8 future-work extensions: local rules, timed triggers, and
//! inter-object triggers.

use bytes::BytesMut;
use ode_core::{
    ClassBuilder, CouplingMode, Database, Decode, Encode, InterClassBuilder, OdeObject, Perpetual,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq)]
struct Stock {
    symbol: String,
    price: f32,
    prev: f32,
}
impl Encode for Stock {
    fn encode(&self, buf: &mut BytesMut) {
        self.symbol.encode(buf);
        self.price.encode(buf);
        self.prev.encode(buf);
    }
}
impl Decode for Stock {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(Stock {
            symbol: String::decode(buf)?,
            price: f32::decode(buf)?,
            prev: f32::decode(buf)?,
        })
    }
}
impl OdeObject for Stock {
    const CLASS: &'static str = "Stock";
}

fn stock_class(db: &Database, fired: &Arc<AtomicU32>) -> Arc<ode_core::TypeDescriptor> {
    let fired = Arc::clone(fired);
    let td = ClassBuilder::new("Stock")
        .after_event("SetPrice")
        .timer_event("daily")
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
                fired.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
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

// ---------------------------------------------------------------------
// Local rules
// ---------------------------------------------------------------------

#[test]
fn local_rules_fire_and_die_with_the_transaction() {
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    stock_class(&db, &fired);
    let stock = db
        .with_txn(|txn| {
            db.pnew(
                txn,
                &Stock {
                    symbol: "T".into(),
                    price: 60.0,
                    prev: 60.0,
                },
            )
        })
        .unwrap();

    // Transaction 1: local rule active, fires on the drop.
    db.with_txn(|txn| {
        db.activate_local(txn, stock, "AlertOnDrop", &())?;
        assert_eq!(db.local_trigger_count(txn), 1);
        set_price(&db, txn, stock, 55.0);
        Ok(())
    })
    .unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1);

    // Transaction 2: the local rule is gone; no firing.
    db.with_txn(|txn| {
        set_price(&db, txn, stock, 50.0);
        Ok(())
    })
    .unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

#[test]
fn local_rule_masks_count_as_mask_evaluations() {
    // A local rule's masks run through the same evaluator as a persistent
    // trigger's, so `mask_evaluations` counts them: once when activation
    // quiesces the start state's pending mask, and again when a post
    // reaches it.
    let db = Database::volatile();
    let td = ClassBuilder::new("Stock")
        .after_event("SetPrice")
        .mask("Dropped", |ctx| {
            let s: Stock = ctx.object()?;
            Ok(s.price < s.prev)
        })
        .trigger(
            "DropSinceActivation",
            "(*after SetPrice) & Dropped()",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    let stock = db
        .with_txn(|txn| {
            db.pnew(
                txn,
                &Stock {
                    symbol: "T".into(),
                    price: 60.0,
                    prev: 60.0,
                },
            )
        })
        .unwrap();

    db.with_txn(|txn| {
        let before = db.stats().mask_evaluations;
        db.activate_local(txn, stock, "DropSinceActivation", &())?;
        assert_eq!(db.local_trigger_count(txn), 1);
        let activated = db.stats().mask_evaluations;
        assert!(activated > before, "activation evaluated the pending mask");
        set_price(&db, txn, stock, 55.0);
        assert!(
            db.stats().mask_evaluations > activated,
            "the post evaluated the mask again"
        );
        Ok(())
    })
    .unwrap();
}

#[test]
fn local_rules_take_no_persistent_storage_and_no_write_locks() {
    // §8: "No persistent storage is required for such triggers … such
    // triggers never require obtaining write locks for the purpose of
    // processing trigger events."
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    stock_class(&db, &fired);
    let stock = db
        .with_txn(|txn| {
            db.pnew(
                txn,
                &Stock {
                    symbol: "T".into(),
                    price: 60.0,
                    prev: 60.0,
                },
            )
        })
        .unwrap();

    db.with_txn(|txn| {
        db.activate_local(txn, stock, "AlertOnDrop", &())?;
        // No persistent trigger state was created.
        assert!(db.active_triggers(txn, stock.oid())?.is_empty());
        db.storage().reset_lock_stats();
        // Posting a *read-only* event-bearing invocation: the only write
        // lock would come from persistent trigger-state updates — local
        // rules must not cause any.
        db.invoke(txn, stock, "SetPrice", |_s: &mut Stock| Ok(()))?;
        let upgrades = db.storage().lock_stats().upgrades;
        assert_eq!(upgrades, 0, "local rule advance must not take write locks");
        Ok(())
    })
    .unwrap();
}

#[test]
fn local_rules_reject_detached_coupling() {
    let db = Database::volatile();
    let td = ClassBuilder::new("Stock")
        .after_event("SetPrice")
        .trigger(
            "Detached",
            "after SetPrice",
            CouplingMode::Independent,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    db.with_txn(|txn| {
        let s = db.pnew(
            txn,
            &Stock {
                symbol: "T".into(),
                price: 1.0,
                prev: 1.0,
            },
        )?;
        let err = db.activate_local(txn, s, "Detached", &()).unwrap_err();
        assert!(matches!(err, ode_core::OdeError::Schema(_)));
        Ok(())
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Timed triggers
// ---------------------------------------------------------------------

#[test]
fn timer_events_drive_composite_expressions() {
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    let fired2 = Arc::clone(&fired);
    let td = ClassBuilder::new("Stock")
        .after_event("SetPrice")
        .timer_event("daily")
        .trigger(
            // Fire when a price change is followed by two daily ticks with
            // no further change (a quiet period: "the price stabilizes").
            "Stabilized",
            "after SetPrice, timer daily, timer daily",
            CouplingMode::Immediate,
            Perpetual::No,
            move |_| {
                fired2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    let stock = db
        .with_txn(|txn| {
            let s = db.pnew(
                txn,
                &Stock {
                    symbol: "AU".into(),
                    price: 100.0,
                    prev: 100.0,
                },
            )?;
            db.activate(txn, s, "Stabilized", &())?;
            Ok(s)
        })
        .unwrap();

    // Change, tick — another change resets the sequence.
    db.with_txn(|txn| {
        set_price(&db, txn, stock, 101.0);
        db.tick(txn, "daily")?;
        set_price(&db, txn, stock, 102.0);
        db.tick(txn, "daily")?;
        Ok(())
    })
    .unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 0, "not yet stable");

    db.with_txn(|txn| {
        db.tick(txn, "daily")?;
        Ok(())
    })
    .unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1, "stable after two ticks");
}

#[test]
fn ticks_only_reach_interested_objects() {
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    stock_class(&db, &fired);
    let other = ClassBuilder::new("Plain").build(db.registry()).unwrap();
    db.register_class(&other).unwrap();
    db.with_txn(|txn| {
        let s = db.pnew(
            txn,
            &Stock {
                symbol: "T".into(),
                price: 1.0,
                prev: 1.0,
            },
        )?;
        db.activate(txn, s, "AlertOnDrop", &())?;
        // One object with a trigger; the tick posts to exactly it.
        assert_eq!(db.tick(txn, "daily")?, 1);
        assert_eq!(db.tick(txn, "unknown-timer")?, 0);
        Ok(())
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Inter-object triggers
// ---------------------------------------------------------------------

#[test]
fn program_trading_inter_object_trigger() {
    // §8: "if AT&T goes below 60 and the price of gold stabilizes, buy
    // 1000 shares of AT&T".
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    let stock_td = stock_class(&db, &fired);

    let bought = Arc::new(AtomicU32::new(0));
    let bought2 = Arc::clone(&bought);
    let pair = InterClassBuilder::new("AttGoldWatch")
        .anchor("att", &stock_td)
        .anchor("gold", &stock_td)
        .mask("AttBelow60", |ctx| {
            let att: Stock = ctx.db().read(
                ctx.txn(),
                ode_core::PersistentPtr::from_oid(ctx.named_anchor("att")?),
            )?;
            Ok(att.price < 60.0)
        })
        .mask("GoldStable", |ctx| {
            let gold: Stock = ctx.db().read(
                ctx.txn(),
                ode_core::PersistentPtr::from_oid(ctx.named_anchor("gold")?),
            )?;
            Ok((gold.price - gold.prev).abs() < 0.5)
        })
        .trigger(
            "BuyAtt",
            "relative((after att.SetPrice & AttBelow60()), (after gold.SetPrice & GoldStable()))",
            CouplingMode::Immediate,
            Perpetual::No,
            move |_ctx| {
                bought2.fetch_add(1000, Ordering::SeqCst);
                Ok(())
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&pair).unwrap();

    let (att, gold) = db
        .with_txn(|txn| {
            let att = db.pnew(
                txn,
                &Stock {
                    symbol: "T".into(),
                    price: 65.0,
                    prev: 65.0,
                },
            )?;
            let gold = db.pnew(
                txn,
                &Stock {
                    symbol: "AU".into(),
                    price: 100.0,
                    prev: 90.0,
                },
            )?;
            db.activate_inter(
                txn,
                "AttGoldWatch",
                "BuyAtt",
                &[("att", att.oid()), ("gold", gold.oid())],
                &(),
            )?;
            Ok((att, gold))
        })
        .unwrap();

    // Gold stabilizing first does nothing (AT&T has not dropped).
    db.with_txn(|txn| {
        set_price(&db, txn, gold, 100.2);
        Ok(())
    })
    .unwrap();
    assert_eq!(bought.load(Ordering::SeqCst), 0);

    // AT&T below 60 arms the trigger…
    db.with_txn(|txn| {
        set_price(&db, txn, att, 58.0);
        Ok(())
    })
    .unwrap();
    assert_eq!(bought.load(Ordering::SeqCst), 0);

    // …a jumpy gold price is not enough…
    db.with_txn(|txn| {
        set_price(&db, txn, gold, 110.0);
        Ok(())
    })
    .unwrap();
    assert_eq!(bought.load(Ordering::SeqCst), 0);

    // …but a stable gold price completes the composite event.
    db.with_txn(|txn| {
        set_price(&db, txn, gold, 110.1);
        Ok(())
    })
    .unwrap();
    assert_eq!(bought.load(Ordering::SeqCst), 1000);

    // Once-only: deactivated after the buy.
    db.with_txn(|txn| {
        set_price(&db, txn, att, 55.0);
        set_price(&db, txn, gold, 110.2);
        Ok(())
    })
    .unwrap();
    assert_eq!(bought.load(Ordering::SeqCst), 1000);
}

#[test]
fn inter_object_distinguishes_same_class_anchors() {
    // Both anchors are Stocks; the FSM must tell "a dropped" from "b
    // dropped" via anchor qualification.
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    let stock_td = stock_class(&db, &fired);
    let seq_fired = Arc::new(AtomicU32::new(0));
    let seq_fired2 = Arc::clone(&seq_fired);
    let pair = InterClassBuilder::new("PairWatch")
        .anchor("a", &stock_td)
        .anchor("b", &stock_td)
        .trigger(
            "AThenB",
            "after a.SetPrice, after b.SetPrice",
            CouplingMode::Immediate,
            Perpetual::Yes,
            move |_| {
                seq_fired2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&pair).unwrap();
    let (a, b) = db
        .with_txn(|txn| {
            let a = db.pnew(
                txn,
                &Stock {
                    symbol: "A".into(),
                    price: 1.0,
                    prev: 1.0,
                },
            )?;
            let b = db.pnew(
                txn,
                &Stock {
                    symbol: "B".into(),
                    price: 1.0,
                    prev: 1.0,
                },
            )?;
            db.activate_inter(
                txn,
                "PairWatch",
                "AThenB",
                &[("a", a.oid()), ("b", b.oid())],
                &(),
            )?;
            Ok((a, b))
        })
        .unwrap();

    // b then a: wrong order, no fire.
    db.with_txn(|txn| {
        set_price(&db, txn, b, 2.0);
        set_price(&db, txn, a, 2.0);
        Ok(())
    })
    .unwrap();
    assert_eq!(seq_fired.load(Ordering::SeqCst), 0);
    // a then b: fires.
    db.with_txn(|txn| {
        set_price(&db, txn, a, 3.0);
        set_price(&db, txn, b, 3.0);
        Ok(())
    })
    .unwrap();
    assert_eq!(seq_fired.load(Ordering::SeqCst), 1);
}
