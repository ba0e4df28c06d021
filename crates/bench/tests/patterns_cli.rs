//! The bench binaries' `--patterns` bound: a count the simulator could
//! not allocate is refused before any work starts.

use std::process::Command;

#[test]
fn patterns_above_the_paper_setting_exit_2_before_any_work() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--patterns", "1000000000000000000", "C1355"])
        .output()
        .expect("the table1 binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--patterns") && stderr.contains("655360"),
        "stderr names the flag and the bound: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "no work starts before the refusal: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
