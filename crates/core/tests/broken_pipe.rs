//! `autocheck` ends quietly when the reader of its standard output goes
//! away (`autocheck t --function main … | head -1`): status 0, no panic
//! message — where a plain `println!` would panic with "failed printing
//! to stdout: Broken pipe" and exit 101.

use autocheck_interp::{ExecOptions, Machine, NoHook, WriterSink};
use std::process::{Command, Stdio};

/// Run `autocheck args`, closing the read end of its stdout pipe before
/// it writes, and require a clean exit.
fn assert_quiet_on_closed_stdout(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_autocheck"))
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
fn autocheck_exits_cleanly_when_stdout_is_closed() {
    let src = include_str!("../../../examples/fig4.mc");
    let module = autocheck_minilang::compile(src).expect("fig4 compiles");
    let mut sink = WriterSink::new(Vec::new());
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("fig4 runs");
    let dir = std::env::temp_dir().join(format!("autocheck-broken-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("fig4.trace").to_string_lossy().into_owned();
    let dot = dir.join("fig4.dot").to_string_lossy().into_owned();
    std::fs::write(&trace, sink.finish().expect("trace bytes")).expect("trace written");

    let region = ["--function", "main", "--start", "16", "--end", "24"];
    for extra in [&["--index", "it", "--dot", &dot][..], &["--stream"]] {
        let args: Vec<&str> = [&trace[..]]
            .into_iter()
            .chain(region)
            .chain(extra.iter().copied())
            .collect();
        assert_quiet_on_closed_stdout(&args);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
