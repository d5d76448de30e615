//! The `ode-server` binary's command line: a flag that takes a value
//! but is given none exits 2 instead of falling back to a default.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `ode-server` with `args` and return its exit code. A server that
/// is still running after a few seconds started serving: it is killed
/// and reported as `None`.
fn exit_code(args: &[&str]) -> Option<i32> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ode-server"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().unwrap() {
            return status.code();
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    None
}

#[test]
fn a_valued_flag_without_a_value_exits_2() {
    // `--token` first: falling back would serve the well-known token.
    for flag in ["--token", "--root", "--addr", "--metrics-addr", "--slow-ms"] {
        assert_eq!(exit_code(&["--volatile", flag]), Some(2), "{flag}");
    }
}
