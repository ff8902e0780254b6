//! `thynvm-sim` refuses a configuration that `SystemConfig::validate`
//! rejects: it prints the reason and exits 2 instead of simulating it. A
//! zero-entry BTT would otherwise never finish a checkpoint, so each run is
//! polled against a deadline and killed if it is still going. An epoch
//! longer than the simulated clock can count runs like any long epoch.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long one rejected run may take before it counts as hung.
const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `thynvm-sim` on a short Sliding trace with `flag` set to 0 and
/// returns its exit code and stderr. Panics if the process is still
/// running after [`DEADLINE`].
fn run_sim_with_zero(flag: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_thynvm-sim"))
        .args(["--workload", "sliding", "--system", "thynvm"])
        .args(["--accesses", "20000", flag, "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("thynvm-sim starts");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("thynvm-sim can be waited on") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            child.kill().expect("a running thynvm-sim can be killed");
            child.wait().expect("the killed thynvm-sim is reaped");
            panic!("thynvm-sim {flag} 0 still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("stderr is piped");
    pipe.read_to_string(&mut stderr).expect("stderr is UTF-8");
    (status.code(), stderr)
}

#[test]
fn thynvm_sim_rejects_configurations_validate_refuses() {
    for (flag, reason) in [
        ("--btt", "BTT must have at least one entry"),
        ("--ptt", "PTT must have at least one entry"),
        ("--epoch-ms", "epoch length must be nonzero"),
    ] {
        let (code, stderr) = run_sim_with_zero(flag);
        assert_eq!(code, Some(2), "{flag} 0 must exit 2; stderr: {stderr}");
        assert!(stderr.starts_with("error: "), "{flag} 0: {stderr:?}");
        assert!(stderr.contains(reason), "{flag} 0: {stderr:?}");
    }
}

/// Runs `thynvm-sim` on a short Sliding trace with `--epoch-ms ms` and
/// returns the table it prints.
fn sim_table_with_epoch_ms(ms: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_thynvm-sim"))
        .args(["--workload", "sliding", "--system", "thynvm"])
        .args(["--accesses", "20000", "--epoch-ms", ms])
        .output()
        .expect("thynvm-sim runs");
    assert!(out.status.success(), "--epoch-ms {ms}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn thynvm_sim_epoch_past_the_clock_range_never_ends() {
    // The trace runs for well under 10 ms, so neither epoch ends before
    // the final checkpoint. An epoch wrapped to a short one would take an
    // extra checkpoint and change the table.
    assert_eq!(sim_table_with_epoch_ms("18446744073709551615"), sim_table_with_epoch_ms("10"));
}
