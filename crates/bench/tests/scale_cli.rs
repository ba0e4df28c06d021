//! The `scale` binary's command line: a verification mode it cannot run
//! is refused before any work starts.

use std::process::Command;

#[test]
fn verify_sim_is_refused_with_exit_code_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_scale"))
        .args(["1000", "--verify", "sim"])
        .output()
        .expect("the scale binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sim"), "stderr names the mode: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "no work starts before the refusal: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
