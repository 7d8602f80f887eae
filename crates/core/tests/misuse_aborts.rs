//! Caller misuse the allocator cannot survive ends in a loud abort, never
//! a silent return: a free of memory no arena owns, a large-path free
//! whose header page holds no header, and a second free of a large block.
//!
//! A passing case kills its own process, so each case re-runs this test
//! binary on itself (`--exact <case>`, with [`CHILD`] set) and asserts
//! that the child died by `SIGABRT` after printing the allocator's
//! message.

#![cfg(unix)]

use hermes_core::rt::{HermesHeap, HermesHeapConfig, PAGE};
use std::alloc::Layout;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;
use std::ptr::NonNull;

/// Set in the child process: the case commits the misuse instead of
/// spawning a child of its own.
const CHILD: &str = "MISUSE_ABORTS_CHILD";

/// `true` in the child. In the parent, runs `case` in a child process
/// and asserts it aborted with `message` on stderr, then returns `false`.
fn in_child(case: &str, message: &str) -> bool {
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let out = Command::new(std::env::current_exe().unwrap())
        .args([case, "--exact", "--nocapture"])
        .env(CHILD, "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.signal(),
        Some(6),
        "{case}: child exited {:?}, stderr:\n{stderr}",
        out.status
    );
    assert!(stderr.contains(message), "{case}: stderr:\n{stderr}");
    false
}

#[test]
fn free_of_a_foreign_pointer_aborts() {
    if !in_child("free_of_a_foreign_pointer_aborts", "no arena owns") {
        return;
    }
    let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
    let layout = Layout::new::<[u64; 4]>();
    let foreign = NonNull::from(Box::leak(Box::new([0u64; 4]))).cast::<u8>();
    // SAFETY: none — the misuse under test; the call must not return.
    unsafe { h.deallocate(foreign, layout) };
    unreachable!("a foreign free returned");
}

#[test]
fn free_inside_a_large_block_aborts() {
    if !in_child("free_inside_a_large_block_aborts", "corrupt header") {
        return;
    }
    let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
    let layout = Layout::from_size_align(256 << 10, 16).unwrap();
    let p = h.allocate(layout).unwrap();
    // SAFETY: fresh allocation of `layout.size()` bytes. Zeroing it means
    // no header magic can sit at `p`.
    unsafe { std::ptr::write_bytes(p.as_ptr(), 0, layout.size()) };
    // SAFETY: `p + PAGE` lies inside the live block.
    let inner = unsafe { NonNull::new_unchecked(p.as_ptr().add(PAGE)) };
    // SAFETY: none — the misuse under test; the call must not return.
    unsafe { h.deallocate(inner, layout) };
    unreachable!("a free inside a large block returned");
}

#[test]
fn double_free_of_a_large_block_aborts() {
    if !in_child("double_free_of_a_large_block_aborts", "double free") {
        return;
    }
    let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
    // No trim may decommit the header page between the two frees.
    h.stop_manager();
    let layout = Layout::from_size_align(256 << 10, 16).unwrap();
    let p = h.allocate(layout).unwrap();
    // SAFETY: `p` is live; the first free is correct use.
    unsafe { h.deallocate(p, layout) };
    // SAFETY: none — the misuse under test; the call must not return.
    unsafe { h.deallocate(p, layout) };
    unreachable!("a second free of a large block returned");
}
