//! Span records never cross recording windows: a record buffered on a
//! thread that outlives a `reset` is dropped, and a thread's records
//! reach the collector as soon as its root span closes, not when the
//! thread exits.
//!
//! The collector is process-global, so this file holds a single test;
//! channels force every interleaving it checks.

use std::sync::mpsc;

fn paths(c: &asteria_obs::Collector) -> Vec<String> {
    c.finished_spans().into_iter().map(|s| s.path).collect()
}

#[test]
fn records_stay_in_their_recording_window() {
    let c = asteria_obs::install();
    c.reset();
    let (to_worker, from_main) = mpsc::channel::<()>();
    let (to_main, from_worker) = mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        // First window: a closed child under a root that stays open.
        let root = asteria_obs::span("stale-root");
        drop(asteria_obs::span("stale-child"));
        to_main.send(()).expect("main alive");
        from_main.recv().expect("main resets");
        // The root began before the reset, so it closes as stale.
        drop(root);
        to_main.send(()).expect("main alive");
        from_main.recv().expect("main checks");
        // Second window: a root span that closes while the thread lives on.
        drop(asteria_obs::span("live-root"));
        to_main.send(()).expect("main alive");
        from_main.recv().expect("main checks");
    });

    from_worker.recv().expect("worker opened its spans");
    c.reset();
    to_worker.send(()).expect("worker alive");
    from_worker.recv().expect("worker closed its stale root");
    assert!(
        paths(c).is_empty(),
        "records from before the reset leaked: {:?}",
        paths(c)
    );

    to_worker.send(()).expect("worker alive");
    from_worker.recv().expect("worker closed its live root");
    assert_eq!(
        paths(c),
        ["live-root"],
        "a closed root span must be visible while its thread still runs"
    );

    to_worker.send(()).expect("worker alive");
    worker.join().expect("worker finished");
    // The thread-exit flush adds nothing stale.
    assert_eq!(paths(c), ["live-root"]);
}
