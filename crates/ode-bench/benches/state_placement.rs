//! E7 — the §5.1.3 design decision: keep trigger state *outside* the
//! object ("storing the current state of the trigger in the object itself
//! would have violated our design goal of maintaining the same object
//! layout … and led to a variety of other problems"), at the price of a
//! separate state-record read per posting.
//!
//! Two measurements:
//! * **speed**: one event posting under (a) the real design — the anchor
//!   header lists the state record's Oid, and the separate record is
//!   read and updated — and (b) a simulation of the rejected design,
//!   where the FSM state is a field of the object itself (every object
//!   of the class carries the field);
//! * **layout stability** (printed): under (a), activating a trigger
//!   leaves the object's stored bytes untouched; under (b) it cannot.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, Criterion};
use ode_bench::{buy, new_card, register_cred_card, CardSetup};
use ode_core::{Database, Decode, Encode, OdeObject};
use ode_events::dfa::Dfa;
use ode_events::parser::parse;
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

/// The rejected design, simulated: the object embeds its trigger's FSM
/// state (changing the class layout for *every* object, §3 goal 5).
#[derive(Debug, Clone)]
struct CardWithEmbeddedState {
    cred_lim: f32,
    curr_bal: f32,
    trigger_statenum: u32,
}
impl Encode for CardWithEmbeddedState {
    fn encode(&self, buf: &mut BytesMut) {
        self.cred_lim.encode(buf);
        self.curr_bal.encode(buf);
        self.trigger_statenum.encode(buf);
    }
}
impl Decode for CardWithEmbeddedState {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(CardWithEmbeddedState {
            cred_lim: f32::decode(buf)?,
            curr_bal: f32::decode(buf)?,
            trigger_statenum: u32::decode(buf)?,
        })
    }
}
impl OdeObject for CardWithEmbeddedState {
    const CLASS: &'static str = "CardWithEmbeddedState";
}

fn bench_state_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_placement");

    // (a) The real design: header ref + separate TriggerState record.
    {
        let db = Database::volatile();
        register_cred_card(&db, CardSetup::WithTrigger);
        let card = new_card(&db, 1);
        group.bench_function("state_outside_object", |b| {
            let txn = db.begin().unwrap();
            b.iter(|| buy(&db, txn, card, 1.0));
            db.abort(txn).unwrap();
        });
        ode_bench::dump_stats("state_placement/state_outside_object", &db);
    }

    // (b) The rejected design, simulated: object carries the statenum and
    // every event is a read-advance-write of the object itself.
    {
        let db = Database::volatile();
        let td = ode_core::ClassBuilder::new("CardWithEmbeddedState")
            .build(db.registry())
            .unwrap();
        db.register_class(&td).unwrap();
        let al = ode_bench::cred_card_alphabet();
        let te = parse("relative((after Buy & MoreCred()), after PayBill)", &al).unwrap();
        let fsm = Dfa::compile(&te, &al);
        let buy_event = ode_events::event::EventId(2);
        let card = db
            .with_txn(|txn| {
                db.pnew(
                    txn,
                    &CardWithEmbeddedState {
                        cred_lim: 1_000_000.0,
                        curr_bal: 0.0,
                        trigger_statenum: fsm.start(),
                    },
                )
            })
            .unwrap();
        group.bench_function("state_inside_object", |b| {
            let txn = db.begin().unwrap();
            b.iter(|| {
                db.update_with(txn, card, |c: &mut CardWithEmbeddedState| {
                    c.curr_bal += 1.0;
                    let more_cred = c.curr_bal > 0.8 * c.cred_lim;
                    let out = fsm.post(c.trigger_statenum, buy_event, |_| more_cred);
                    c.trigger_statenum = out.state;
                })
                .unwrap()
            });
            db.abort(txn).unwrap();
        });
    }

    group.finish();

    // Layout-stability demonstration (the decisive argument, §6: in-object
    // state "would have changed object layout and required converting
    // existing data when triggers are added/removed from a class").
    let db = Database::volatile();
    register_cred_card(&db, CardSetup::WithTrigger);
    let card = new_card(&db, 0);
    let bytes_before = db
        .with_txn(|txn| {
            let c = db.read(txn, card)?;
            Ok(ode_storage::codec::encode_to_vec(&c))
        })
        .unwrap();
    db.with_txn(|txn| {
        db.activate(txn, card, "AutoRaiseLimit", &1.0f32)?;
        Ok(())
    })
    .unwrap();
    let bytes_after = db
        .with_txn(|txn| {
            let c = db.read(txn, card)?;
            Ok(ode_storage::codec::encode_to_vec(&c))
        })
        .unwrap();
    println!(
        "\n=== E7: layout stability — object payload {} bytes before activation, {} after (identical: {}) ===",
        bytes_before.len(),
        bytes_after.len(),
        bytes_before == bytes_after
    );
    assert_eq!(bytes_before, bytes_after);
    black_box(bytes_after);
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_state_placement
}
criterion_main!(benches);
