//! The object → triggers map (§5.1.3) lives in each anchor's header: the
//! header lists the Oids of the anchor's `TriggerState` records. These
//! tests pin the ways that list must survive — every write path, aborts,
//! reopen, scale, inter-object anchors, `pdelete` — and the refusal of a
//! file written before the list existed.

mod common;

use common::{buy, cred_card_class, pay_bill, CredCard};
use ode_core::{
    CouplingMode, Database, EngineKind, InterClassBuilder, OdeError, Oid, Perpetual, PersistentPtr,
    Storage, StorageOptions, TriggerId,
};
use ode_testutil::TempDir;
use proptest::prelude::*;

fn disk() -> StorageOptions {
    StorageOptions {
        engine: EngineKind::Disk,
        ..StorageOptions::default()
    }
}

fn active(db: &Database, oid: Oid) -> Vec<TriggerId> {
    db.with_txn(|txn| db.active_triggers(txn, oid)).unwrap()
}

fn healthy(db: &Database) -> bool {
    db.with_txn(|txn| Ok(db.verify_integrity(txn)?.is_healthy()))
        .unwrap()
}

/// Register a watch with one trigger `T` over the named card anchors.
fn watch(db: &Database, class: &str, anchors: &[&str], expr: &str) {
    let card_td = cred_card_class(db);
    let mut b = InterClassBuilder::new(class);
    for name in anchors {
        b = b.anchor(name, &card_td);
    }
    let td = b
        .trigger("T", expr, CouplingMode::Immediate, Perpetual::Yes, |_| {
            Ok(())
        })
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
}

#[test]
fn rust_writes_keep_the_refs_and_the_triggers_keep_firing() {
    let db = Database::volatile();
    cred_card_class(&db);
    // `invoke` (Buy, PayBill), the AutoRaiseLimit action's
    // `update_object` and `update_with` all rewrite the record.
    let (card, deny) = db
        .with_txn(|txn| {
            let card = db.pnew(txn, &CredCard::new(1000.0))?;
            let deny = db.activate(txn, card, "DenyCredit", &())?;
            db.activate(txn, card, "AutoRaiseLimit", &500.0f32)?;
            buy(&db, txn, card, 900.0)?;
            pay_bill(&db, txn, card, 100.0)?;
            db.update_with(txn, card, |c| c.good_hist = false)?;
            Ok((card, deny))
        })
        .unwrap();
    // The once-only trigger fired and left; DenyCredit is still listed
    // and still fires.
    assert_eq!(active(&db, card.oid()), vec![deny]);
    let err = db.with_txn(|txn| buy(&db, txn, card, 5000.0)).unwrap_err();
    assert!(err.is_abort(), "{err}");
    assert_eq!(active(&db, card.oid()), vec![deny]);
    assert!(healthy(&db));
}

#[test]
fn ddl_call_set_and_trigger_set_actions_keep_the_refs() {
    let engine = ode_core::Engine::volatile();
    let mut s = engine.session();
    for stmt in [
        "CREATE DATABASE t",
        "USE t",
        "CREATE CLASS Card { FIELD cred_lim = 1000; FIELD curr_bal; FIELD hits; \
         EVENT AFTER Buy; MASK OverLimit WHEN curr_bal > cred_lim; }",
        "CREATE TRIGGER Count ON Card PERPETUAL WHEN after Buy \
         COUPLING immediate DO SET hits = hits + 1",
        "CREATE TRIGGER Deny ON Card PERPETUAL WHEN after Buy & OverLimit() \
         COUPLING immediate DO ABORT 'Over Limit'",
    ] {
        s.execute(stmt).unwrap();
    }
    let card = s.execute("NEW Card").unwrap();
    let count = s.execute(&format!("ACTIVATE Count ON {card}")).unwrap();
    let deny = s.execute(&format!("ACTIVATE Deny ON {card}")).unwrap();
    for _ in 0..3 {
        // `CALL … SET` writes the card, then `Count`'s `SET` writes it.
        s.execute(&format!("CALL {card} Buy SET curr_bal = curr_bal + 10"))
            .unwrap();
    }
    assert_eq!(s.execute(&format!("GET {card} hits")).unwrap(), "3");
    let err = s
        .execute(&format!("CALL {card} Buy SET curr_bal = 5000"))
        .unwrap_err();
    assert!(err.message.contains("Over Limit"), "{err}");
    let db = s.database().unwrap();
    let (page, slot) = card.split_once(':').unwrap();
    let oid = Oid::new(page.parse().unwrap(), slot.parse().unwrap());
    let ids: Vec<String> = active(db, oid)
        .iter()
        .map(|i| i.oid().to_string())
        .collect();
    assert_eq!(ids, vec![count, deny]);
    assert!(healthy(db));
}

#[test]
fn aborted_activate_and_deactivate_roll_back_the_header() {
    let db = Database::volatile();
    cred_card_class(&db);
    let card = db
        .with_txn(|txn| db.pnew(txn, &CredCard::new(1000.0)))
        .unwrap();
    let record = || {
        db.with_txn(|txn| Ok(db.storage().read(txn, card.oid())?))
            .unwrap()
    };
    let bare = record();
    let _ = db.with_txn(|txn| {
        db.activate(txn, card, "DenyCredit", &())?;
        Err::<(), _>(OdeError::tabort("undo the activation"))
    });
    assert_eq!(record(), bare, "an aborted ACTIVATE leaves no ref");

    let id = db
        .with_txn(|txn| db.activate(txn, card, "DenyCredit", &()))
        .unwrap();
    let armed = record();
    // E7: arming sets the flag and grows the header, never the payload.
    assert_eq!(armed[4], 1);
    assert_eq!(&armed[5 + 2 + 6..], &bare[5..]);

    let _ = db.with_txn(|txn| {
        assert!(db.deactivate(txn, id)?);
        Err::<(), _>(OdeError::tabort("undo the deactivation"))
    });
    assert_eq!(record(), armed, "an aborted DEACTIVATE keeps the ref");
    db.with_txn(|txn| db.deactivate(txn, id)).unwrap();
    assert_eq!(record(), bare, "the last ref clears the flag");
}

#[test]
fn refs_survive_a_disk_reopen() {
    let dir = TempDir::new("header-refs-reopen");
    let db = Database::create(dir.path(), disk()).unwrap();
    cred_card_class(&db);
    let (card, ids) = db
        .with_txn(|txn| {
            let card = db.pnew(txn, &CredCard::new(1000.0))?;
            let deny = db.activate(txn, card, "DenyCredit", &())?;
            let raise = db.activate(txn, card, "AutoRaiseLimit", &1.0f32)?;
            Ok((card, vec![deny, raise]))
        })
        .unwrap();
    db.close().unwrap();
    let db = Database::open(dir.path(), disk()).unwrap();
    cred_card_class(&db);
    assert_eq!(active(&db, card.oid()), ids);
    let err = db.with_txn(|txn| buy(&db, txn, card, 5000.0)).unwrap_err();
    assert!(err.is_abort(), "DenyCredit fires after reopen: {err}");
}

/// The at-scale load that once stranded a bucket of the separate hash
/// index: ~19K cards, two triggers each, armed 64 cards per transaction
/// on the disk engine. Every card must report both.
#[test]
fn every_card_of_a_19k_load_reports_its_two_triggers() {
    let dir = TempDir::new("header-refs-scale");
    let db = Database::create(dir.path(), disk()).unwrap();
    cred_card_class(&db);
    let mut cards: Vec<PersistentPtr<CredCard>> = Vec::new();
    for _ in 0..19_200 / 64 {
        db.with_txn(|txn| {
            for _ in 0..64 {
                let card = db.pnew(txn, &CredCard::new(1000.0))?;
                db.activate(txn, card, "DenyCredit", &())?;
                db.activate(txn, card, "AutoRaiseLimit", &500.0f32)?;
                cards.push(card);
            }
            Ok(())
        })
        .unwrap();
    }
    db.with_txn(|txn| {
        for (i, card) in cards.iter().enumerate() {
            assert_eq!(db.active_triggers(txn, card.oid())?.len(), 2, "card {i}");
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn inter_object_trigger_is_listed_under_every_anchor() {
    let db = Database::volatile();
    watch(&db, "PairWatch", &["a", "b"], "after a.Buy, after b.Buy");
    let pair =
        |txn, a: Oid, b: Oid| db.activate_inter(txn, "PairWatch", "T", &[("a", a), ("b", b)], &());
    let (a, b, c, ab, bc, deny) = db
        .with_txn(|txn| {
            let a = db.pnew(txn, &CredCard::new(1000.0))?;
            let b = db.pnew(txn, &CredCard::new(1000.0))?;
            let c = db.pnew(txn, &CredCard::new(1000.0))?;
            let deny = db.activate(txn, b, "DenyCredit", &())?;
            let ab = pair(txn, a.oid(), b.oid())?;
            let bc = pair(txn, b.oid(), c.oid())?;
            Ok((a, b, c, ab, bc, deny))
        })
        .unwrap();
    assert_eq!(active(&db, a.oid()), vec![ab]);
    assert_eq!(active(&db, b.oid()), vec![deny, ab, bc]);
    assert_eq!(active(&db, c.oid()), vec![bc]);
    // Deleting one anchor deactivates its watch under the other anchor
    // too, and leaves everything else alone.
    db.with_txn(|txn| db.pdelete(txn, a)).unwrap();
    assert_eq!(active(&db, b.oid()), vec![deny, bc]);
    assert_eq!(active(&db, c.oid()), vec![bc]);
    assert!(healthy(&db));
}

#[test]
fn a_file_without_the_state_cluster_root_is_refused() {
    // The earlier layout: schema and system-cluster roots, with the
    // object → triggers map under a root this version does not read.
    let dir = TempDir::new("header-refs-format");
    let storage = Storage::create(dir.path(), disk()).unwrap();
    let txn = storage.begin().unwrap();
    let cluster = storage.create_cluster(txn).unwrap();
    let schema = storage
        .allocate(txn, cluster, &[1, 0, 0, 0, 0, 0, 0, 0])
        .unwrap();
    storage.set_root(txn, "ode.schema", schema).unwrap();
    storage
        .set_root(txn, "ode.trigger_cluster", Oid::new(cluster, 0))
        .unwrap();
    storage.commit(txn).unwrap();
    storage.close().unwrap();
    match Database::open(dir.path(), disk()) {
        Err(OdeError::UnsupportedFormat(why)) => assert!(why.contains("state_cluster"), "{why}"),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("an old-layout file opened with no triggers"),
    }
}

// ---------------------------------------------------------------------
// The ref model: random activation churn on both engines
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RefOp {
    /// Activate on an object: DenyCredit, AutoRaiseLimit or the
    /// one-anchor inter-object watch.
    Activate(usize, u8),
    AbortedActivate(usize),
    Deactivate(usize, usize),
    Pdelete(usize),
}

fn ref_ops() -> impl Strategy<Value = Vec<RefOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..3usize, 0..3u8).prop_map(|(o, t)| RefOp::Activate(o, t)),
            1 => (0..3usize).prop_map(RefOp::AbortedActivate),
            2 => (0..3usize, 0..4usize).prop_map(|(o, k)| RefOp::Deactivate(o, k)),
            1 => (0..3usize).prop_map(RefOp::Pdelete),
        ],
        0..24,
    )
}

/// Apply `ops` to three cards, tracking each one's refs in activation
/// order (`None` once deleted), then compare every card's
/// `active_triggers` with the model.
fn check_ref_model(db: &Database, ops: &[RefOp]) -> Result<(), TestCaseError> {
    watch(db, "SoloWatch", &["c"], "after c.Buy");
    let cards: Vec<PersistentPtr<CredCard>> = db
        .with_txn(|txn| {
            (0..3)
                .map(|_| db.pnew(txn, &CredCard::new(1000.0)))
                .collect()
        })
        .unwrap();
    let mut model: Vec<Option<Vec<TriggerId>>> = vec![Some(Vec::new()); 3];
    for op in ops {
        match *op {
            RefOp::Activate(o, t) => {
                let got = db.with_txn(|txn| match t {
                    0 => db.activate(txn, cards[o], "DenyCredit", &()),
                    1 => db.activate(txn, cards[o], "AutoRaiseLimit", &1.0f32),
                    _ => db.activate_inter(txn, "SoloWatch", "T", &[("c", cards[o].oid())], &()),
                });
                // Activating on a deleted object is an error.
                match (&mut model[o], got) {
                    (Some(refs), Ok(id)) => refs.push(id),
                    (None, Err(_)) => {}
                    (m, got) => prop_assert!(false, "activate on {o}: {m:?} vs {got:?}"),
                }
            }
            RefOp::AbortedActivate(o) => {
                let got = db.with_txn(|txn| {
                    db.activate(txn, cards[o], "DenyCredit", &())?;
                    Err::<(), _>(OdeError::tabort("model abort"))
                });
                prop_assert!(got.is_err());
            }
            RefOp::Deactivate(o, k) => {
                let Some(refs) = model[o].as_mut().filter(|r| !r.is_empty()) else {
                    continue;
                };
                let id = refs.remove(k % refs.len());
                prop_assert!(db.with_txn(|txn| db.deactivate(txn, id)).unwrap());
            }
            RefOp::Pdelete(o) => {
                let got = db.with_txn(|txn| db.pdelete(txn, cards[o]));
                prop_assert_eq!(got.is_ok(), model[o].take().is_some());
            }
        }
    }
    for (card, expect) in cards.iter().zip(&model) {
        prop_assert_eq!(active(db, card.oid()), expect.clone().unwrap_or_default());
    }
    prop_assert!(healthy(db));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn header_refs_match_model_memory(ops in ref_ops()) {
        check_ref_model(&Database::volatile(), &ops)?;
    }

    #[test]
    fn header_refs_match_model_disk(ops in ref_ops()) {
        let dir = TempDir::new("header-refs-model");
        check_ref_model(&Database::create(dir.path(), disk()).unwrap(), &ops)?;
    }
}
