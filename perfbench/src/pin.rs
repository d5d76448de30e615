//! Thread placement for the served workloads.
//!
//! Two connections put four busy threads (two clients, two server
//! connection threads) on a two-CPU host, and where the scheduler places
//! them changes from run to run. Pinning each connection's client and
//! server thread to one CPU gives every closed loop a CPU of its own: on
//! the host described in `README.md`, ten unpinned `card_wire` runs read
//! p99 from 0.29 to 1.5 ms and 10.3K to 15.1K stmt/s, five pinned runs in
//! the same busy period 0.35 to 0.75 ms and 12.5K to 14.1K stmt/s.

/// Words of the CPU mask passed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, ascending (empty if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and the kernel writes at most that many bytes into it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .collect()
}

/// Pin thread `tid` (0: the calling thread) to `cpu`, one of
/// [`allowed_cpus`]. Returns whether the kernel accepted it.
pub fn pin(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the call
    // only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Ids of this process's threads named `name`, ascending (creation order).
pub fn threads_named(name: &str) -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut tids: Vec<i32> = tasks
        .flatten()
        .filter_map(|task| {
            let tid = task.file_name().to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            (comm.trim_end() == name).then_some(tid)
        })
        .collect();
    tids.sort_unstable();
    tids
}
