//! Allocation ceilings for the per-test injection substrate.
//!
//! Every in-process target family runs a fixed seeded point set
//! (`common/points.rs`) through its `execute`, and the heap allocations
//! made per test must stay under a committed ceiling. Unlike wall-clock
//! time, the count is exact for a given point set on any host, so it can
//! gate a change: a later change that raises a ceiling says why in
//! CHANGES.md.
//!
//! This binary installs a counting global allocator. It counts `alloc`,
//! `alloc_zeroed` and `realloc` calls made on the measuring thread only,
//! while [`allocations`] runs, so the harness's own threads add nothing.

use afex::space::Point;
use afex::targets::docstore::Version;
use afex::targets::recovery::{EngineKind, RecoverySpace};
use afex::targets::spaces::TargetSpace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[path = "common/points.rs"]
mod points;

use points::points;

/// Points per simulated suite.
const SUITE_POINTS: usize = 1_000;
/// Points per `vfs:*` kind.
const VFS_POINTS: usize = 300;

// The ceilings below are the measured means plus about 10 %; PERF.md
// (Layer 13) lists the measured counts.

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(Cell::get)
}

/// Mean allocations per test of `execute` over `points`. One uncounted
/// run first pays the process's one-time costs (the quiet panic hook).
fn per_test<O>(points: &[Point], execute: impl Fn(&Point) -> O) -> f64 {
    drop(execute(&points[0]));
    let total = allocations(|| {
        for p in points {
            drop(execute(p));
        }
    });
    total as f64 / points.len() as f64
}

fn assert_ceiling(family: &str, got: f64, ceiling: f64) {
    eprintln!("{family}: {got:.1} allocations per test (ceiling {ceiling})");
    assert!(
        got <= ceiling,
        "{family}: {got:.1} allocations per test exceed the ceiling of {ceiling}"
    );
}

fn suite(family: &str, ts: TargetSpace, seed: u64, ceiling: f64) {
    let pts = points(ts.space(), seed, SUITE_POINTS);
    assert_ceiling(family, per_test(&pts, |p| ts.execute(p)), ceiling);
}

fn vfs(kind: EngineKind, seed: u64, ceiling: f64) {
    let rs = RecoverySpace::new(kind);
    let pts = points(rs.space(), seed, VFS_POINTS);
    assert_ceiling(&rs.name(), per_test(&pts, |p| rs.execute(p)), ceiling);
}

#[test]
fn coreutils_allocations_stay_under_ceiling() {
    suite("coreutils", TargetSpace::coreutils(), 1, 46.0);
}

#[test]
fn minidb_allocations_stay_under_ceiling() {
    suite("minidb", TargetSpace::mysql(), 2, 91.0);
}

#[test]
fn httpd_allocations_stay_under_ceiling() {
    suite("httpd", TargetSpace::apache(), 3, 51.0);
}

#[test]
fn docstore_allocations_stay_under_ceiling() {
    suite(
        "docstore-0.8",
        TargetSpace::docstore(Version::V0_8),
        4,
        19.0,
    );
    suite(
        "docstore-2.0",
        TargetSpace::docstore(Version::V2_0),
        5,
        32.0,
    );
}

#[test]
fn vfs_allocations_stay_under_ceiling() {
    vfs(EngineKind::MiniDbAppend, 6, 190.0);
    vfs(EngineKind::MiniDbRewrite, 7, 183.0);
    vfs(EngineKind::Docstore, 8, 75.0);
}
