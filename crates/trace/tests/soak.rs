//! Arena-reclamation soak: session string storage must plateau, not leak.
//!
//! Before per-session ownership, every distinct symbol ever interned —
//! including hostile, never-repeating names from untrusted traces — was
//! leaked into the process-wide arena, so a long-lived service grew without
//! bound. This soak drives ≥1000 sessions over hostile (unique-per-session)
//! symbol sets and asserts the process-wide [`arena_bytes`] gauge returns
//! to its baseline after each wave of sessions drops: the footprint is a
//! plateau, not a ramp.
//!
//! CI runs this in release mode (`cargo test --release --test soak`) so the
//! allocation pattern matches production; it is cheap enough to ride along
//! in the debug tier-1 run too.

use autocheck_trace::intern::arena_bytes;
use autocheck_trace::AnalysisCtx;
use std::sync::{Mutex, MutexGuard};

/// Both tests read the process-wide [`arena_bytes`] gauge, so one test's
/// interning shows up in the other's readings. The test harness runs them
/// on parallel threads; this lock runs them one at a time.
static GAUGE: Mutex<()> = Mutex::new(());

fn gauge_lock() -> MutexGuard<'static, ()> {
    // A failed assertion in one test poisons the lock; the other test still
    // runs and reports its own result.
    GAUGE.lock().unwrap_or_else(|e| e.into_inner())
}

/// One hostile session: a fresh space interning `n` long, never-repeating
/// symbol names (the shape an adversarial trace generator produces).
/// Returns the bytes the session's space owned while alive.
fn hostile_session(wave: usize, n: usize) -> usize {
    let ctx = AnalysisCtx::session();
    let mut expect = 0usize;
    for i in 0..n {
        let name = format!("hostile::{wave:08}::{i:08}::{}", "x".repeat(48));
        expect += name.len();
        let sym = ctx.intern(&name);
        let _g = ctx.enter();
        assert_eq!(sym.as_str(), name);
    }
    let owned = ctx.space().owned_bytes();
    assert_eq!(owned, expect, "session owns exactly its interned bytes");
    owned
}

#[test]
fn a_thousand_hostile_sessions_plateau() {
    const SESSIONS: usize = 1200;
    const SYMBOLS_PER_SESSION: usize = 64;
    let _serial = gauge_lock();

    // Baseline after one throwaway wave so one-time global costs (the
    // default space, lazily-initialized statics) are excluded.
    hostile_session(usize::MAX, SYMBOLS_PER_SESSION);
    let baseline = arena_bytes();

    let mut per_session = 0usize;
    let mut high_water = 0usize;
    for wave in 0..SESSIONS {
        per_session = hostile_session(wave, SYMBOLS_PER_SESSION);
        high_water = high_water.max(arena_bytes());
    }

    let settled = arena_bytes();
    // Plateau, not ramp: after every session has dropped, the arena is back
    // at its baseline. The slack absorbs allocator-side rounding in the
    // counters we track.
    assert!(
        settled <= baseline + per_session,
        "arena did not reclaim: baseline {baseline}, settled {settled} \
         after {SESSIONS} sessions of ~{per_session} bytes each"
    );
    // And while running, the footprint never approached the leak shape:
    // SESSIONS sessions' worth of strings. A tenth of the leak total is a
    // generous ceiling for "a handful of sessions live at once".
    let leak_total = per_session * SESSIONS;
    assert!(
        high_water < baseline + leak_total / 10,
        "arena high-water {high_water} is within an order of the leak \
         shape {leak_total} (baseline {baseline})"
    );
}

#[test]
fn interleaved_sessions_account_independently() {
    // Two live sessions: dropping one reclaims its bytes without touching
    // the other's.
    let _serial = gauge_lock();
    let before = arena_bytes();
    let a = AnalysisCtx::session();
    let b = AnalysisCtx::session();
    for i in 0..256 {
        a.intern(&format!("left::{i:06}"));
        b.intern(&format!("right::{i:06}::{}", "y".repeat(32)));
    }
    let a_bytes = a.space().owned_bytes();
    let b_bytes = b.space().owned_bytes();
    assert!(a_bytes > 0 && b_bytes > a_bytes);
    let while_both = arena_bytes();
    assert!(while_both >= before + a_bytes + b_bytes);
    drop(a);
    let after_a = arena_bytes();
    assert!(
        after_a <= while_both - a_bytes,
        "dropping `a` must release its {a_bytes} bytes"
    );
    assert_eq!(b.space().owned_bytes(), b_bytes, "b is untouched");
    drop(b);
    assert!(arena_bytes() <= after_a - b_bytes);
}
