//! Flight records join their spans. A record's `(trace_id, span_id)` is
//! the innermost span open when it was emitted, so each step of the
//! §5.4.5/§5.5 cascade — posted event, FSM advance, firing, coupling-mode
//! system transaction, durable commit — and a lock wait must be stamped
//! with the span that measures that same step.

#[allow(dead_code)] // this test builds its own class, with a dependent trigger
mod common;

use common::{buy, pay_bill, CredCard};
use ode_core::{ClassBuilder, CouplingMode, Database, Perpetual, PersistentPtr, StorageOptions};
use ode_obs::FlightEvent;
use ode_testutil::TempDir;
use ode_trace::SpanKind;
use std::collections::{BTreeSet, HashMap};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Figure 1's `AutoRaiseLimit` (immediate) beside a dependent-coupled
/// trigger on `after PayBill`, so one billing cycle fires both an
/// immediate action and a detached system transaction.
fn world(db: &Database) -> PersistentPtr<CredCard> {
    let td = ClassBuilder::new("CredCard")
        .after_event("PayBill")
        .after_event("Buy")
        .mask("MoreCred", |ctx| {
            let card: CredCard = ctx.object()?;
            Ok(card.more_cred())
        })
        .trigger(
            "AutoRaiseLimit",
            "relative((after Buy & MoreCred()), after PayBill)",
            CouplingMode::Immediate,
            Perpetual::No,
            |ctx| {
                let amount: f32 = ctx.params()?;
                ctx.update_object(|card: &mut CredCard| card.cred_lim += amount)
            },
        )
        .trigger(
            "SettleDependent",
            "after PayBill",
            CouplingMode::Dependent,
            Perpetual::Yes,
            |ctx| ctx.update_object(|card: &mut CredCard| card.good_hist = true),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    db.with_txn(|txn| {
        let card = db.pnew(txn, &CredCard::new(1000.0))?;
        db.activate(txn, card, "AutoRaiseLimit", &100.0f32)?;
        db.activate(txn, card, "SettleDependent", &())?;
        Ok(card)
    })
    .unwrap()
}

/// Hold `card` exclusively on another thread until this thread has
/// queued behind it, so the `Buy` that follows records one lock wait.
fn hold_card_until_a_wait(
    db: &Arc<Database>,
    card: PersistentPtr<CredCard>,
) -> std::thread::JoinHandle<()> {
    let waits = |db: &Database| {
        let s = db.stats();
        s.lock_shared_waits + s.lock_exclusive_waits
    };
    let before = waits(db);
    let (held_tx, held_rx) = mpsc::channel();
    let db = Arc::clone(db);
    let holder = std::thread::spawn(move || {
        let txn = db.begin().unwrap();
        db.update_with(txn, card, |c: &mut CredCard| c.curr_bal += 0.0)
            .unwrap();
        held_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while waits(&db) == before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        db.commit(txn).unwrap();
    });
    held_rx.recv().unwrap();
    holder
}

#[test]
fn cascade_records_are_stamped_with_their_own_spans() {
    let dir = TempDir::new("trace-stamps");
    let db = Arc::new(Database::create(dir.path(), StorageOptions::default()).unwrap());
    let card = world(&db);

    let trace_id = ode_trace::next_trace_id();
    let guard = ode_trace::install(trace_id);
    let root = ode_trace::span(SpanKind::Statement, "cycle");
    let holder = hold_card_until_a_wait(&db, card);
    // Buy arms the mask path (900 > 80% of 1000); PayBill completes the
    // `relative` expression (firing AutoRaiseLimit) and fires
    // SettleDependent, whose system transaction runs and commits inside
    // the user commit.
    let txn = db.begin().unwrap();
    buy(&db, txn, card, 900.0).unwrap();
    pay_bill(&db, txn, card, 900.0).unwrap();
    db.commit(txn).unwrap();
    drop(root);
    let spans = guard.finish();
    holder.join().unwrap();

    let kind_of: HashMap<u64, SpanKind> = spans.iter().map(|s| (s.span_id, s.kind)).collect();
    let mut checked = BTreeSet::new();
    for rec in db.flight_log().iter().filter(|r| r.trace_id == trace_id) {
        let want = match rec.event {
            FlightEvent::EventPosted { .. } => SpanKind::Post,
            FlightEvent::FsmAdvanced { .. } => SpanKind::FsmAdvance,
            FlightEvent::TriggerFired { .. } => SpanKind::Action,
            FlightEvent::SystemTxnStarted { .. } => SpanKind::SystemTxn,
            FlightEvent::CommitDurable { .. } => SpanKind::Commit,
            FlightEvent::LockWait { .. } => SpanKind::LockWait,
            _ => continue,
        };
        assert_eq!(
            kind_of.get(&rec.span_id),
            Some(&want),
            "{:?} is stamped with span {}",
            rec.event,
            rec.span_id
        );
        checked.insert(want.label());
    }
    assert_eq!(checked.len(), 6, "every step was recorded: {checked:?}");
}
