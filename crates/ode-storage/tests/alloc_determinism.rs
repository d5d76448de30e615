//! Page layout is a function of the operations alone: two stores that see
//! the same allocations and frees hand out the same Oids, whichever
//! threads run them and however many threads allocated before.

use ode_storage::oid::Oid;
use ode_storage::storage::Storage;

const ROUNDS: usize = 20;
const ALLOCS_PER_ROUND: usize = 50;

/// One fixed workload on a fresh volatile store: each round allocates 50
/// objects of 16–415 bytes into one cluster, then frees every 7th of them.
/// Returns every Oid the allocator handed out, in order.
fn run_workload() -> Vec<Oid> {
    let storage = Storage::volatile();
    let txn = storage.begin().unwrap();
    let cluster = storage.create_cluster(txn).unwrap();
    storage.commit(txn).unwrap();
    let mut issued = Vec::with_capacity(ROUNDS * ALLOCS_PER_ROUND);
    for round in 0..ROUNDS {
        let txn = storage.begin().unwrap();
        let oids: Vec<Oid> = (0..ALLOCS_PER_ROUND)
            .map(|i| {
                let len = 16 + (round * 131 + i * 37) % 400;
                storage.allocate(txn, cluster, &vec![i as u8; len]).unwrap()
            })
            .collect();
        storage.commit(txn).unwrap();
        let txn = storage.begin().unwrap();
        for &oid in oids.iter().step_by(7) {
            storage.free(txn, oid).unwrap();
        }
        storage.commit(txn).unwrap();
        issued.extend(oids);
    }
    issued
}

#[test]
fn identical_loads_on_fresh_threads_get_identical_oids() {
    let first = std::thread::spawn(run_workload);
    let second = std::thread::spawn(run_workload);
    let (first, second) = (first.join().unwrap(), second.join().unwrap());
    assert_eq!(first.len(), ROUNDS * ALLOCS_PER_ROUND);
    assert_eq!(
        first, second,
        "the same load laid its pages out differently"
    );
}
