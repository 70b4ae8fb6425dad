//! `mlc` ends quietly when the reader of its standard output goes away
//! (`mlc ir f.mc | head -1`): status 0, no panic message — where a plain
//! `println!` would panic with "failed printing to stdout: Broken pipe"
//! and exit 101. (`autocheck`'s case is in `crates/core/tests`, where
//! cargo builds that binary.)

use std::path::Path;
use std::process::{Command, Stdio};

/// Run `bin args`, closing the read end of its stdout pipe before it
/// writes, and require a clean exit.
fn assert_quiet_on_closed_stdout(bin: &Path, args: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        out.status.success(),
        "{args:?} exited {}: {stderr}",
        out.status
    );
}

#[test]
fn mlc_exits_cleanly_when_stdout_is_closed() {
    let fig4 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig4.mc");
    let mlc = Path::new(env!("CARGO_BIN_EXE_mlc"));
    for args in [
        &["ir", fig4][..],
        &["loops", fig4],
        &["run", fig4],
        &["app", "cg"],
    ] {
        assert_quiet_on_closed_stdout(mlc, args);
    }
}
