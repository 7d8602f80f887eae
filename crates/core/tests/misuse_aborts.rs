//! Caller misuse the allocator cannot survive ends in a loud abort, never
//! a silent return: a free of memory no arena owns, a large-path free
//! whose header page holds no header, a second free of a large or a
//! heap block, on the owning thread or a foreign one, and a home free
//! with another size class's layout, caught when its magazine flushes.
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
use std::sync::Arc;
use std::time::Duration;

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

/// 8 KiB is no thread-cache class, so no magazine parks the first free
/// and hides the second from the heap.
fn heap_block() -> Layout {
    Layout::from_size_align(8192, 16).unwrap()
}

#[test]
fn double_free_of_a_heap_block_aborts() {
    if !in_child(
        "double_free_of_a_heap_block_aborts",
        "double free of a heap block",
    ) {
        return;
    }
    let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
    let p = h.allocate(heap_block()).unwrap();
    // SAFETY: `p` is live; the first free is correct use.
    unsafe { h.deallocate(p, heap_block()) };
    // SAFETY: none — the misuse under test; the call must not return.
    unsafe { h.deallocate(p, heap_block()) };
    unreachable!("a second free of a heap block returned");
}

/// An 8 KiB block of the other shard of `h`: allocated on a worker whose
/// home differs from this thread's, so a free of it here is cross-shard.
fn foreign_heap_block(h: &Arc<HermesHeap>) -> NonNull<u8> {
    let mine = h.home_arena();
    let addr = (0..8)
        .find_map(|_| {
            let hh = Arc::clone(h);
            std::thread::spawn(move || {
                (hh.home_arena() != mine)
                    .then(|| hh.allocate(heap_block()).unwrap().as_ptr() as usize)
            })
            .join()
            .unwrap()
        })
        .expect("a worker landed on a foreign home shard");
    NonNull::new(addr as *mut u8).unwrap()
}

#[test]
fn foreign_double_free_of_a_heap_block_aborts() {
    if !in_child(
        "foreign_double_free_of_a_heap_block_aborts",
        "double free of a heap block",
    ) {
        return;
    }
    // No live manager: both cross-shard frees queue, and the drain that
    // returns them finds the block freed twice.
    let h = Arc::new(HermesHeap::new(HermesHeapConfig::small().with_arena_count(2)).unwrap());
    let p = foreign_heap_block(&h);
    // SAFETY: `p` is live; the first free is correct use.
    unsafe { h.deallocate(p, heap_block()) };
    // SAFETY: none — the misuse under test.
    unsafe { h.deallocate(p, heap_block()) };
    assert_eq!(h.counters().remote_queued_blocks, 2, "both frees queued");
    h.drain_remote_inboxes();
    unreachable!("a drain of a queued second free returned");
}

#[test]
fn direct_foreign_double_free_of_a_heap_block_aborts() {
    if !in_child(
        "direct_foreign_double_free_of_a_heap_block_aborts",
        "double free of a heap block",
    ) {
        return;
    }
    // A live manager that never wakes: each uncontended cross-shard free
    // returns its block to the owner's heap at once, so the second one
    // aborts before it returns, with no drain.
    let mut cfg = HermesHeapConfig::small().with_arena_count(2);
    cfg.hermes.interval = Duration::from_secs(3600);
    let h = Arc::new(HermesHeap::new(cfg).unwrap());
    h.start_manager();
    let p = foreign_heap_block(&h);
    // SAFETY: `p` is live; the first free is correct use.
    unsafe { h.deallocate(p, heap_block()) };
    let c = h.counters();
    assert_eq!((c.remote_frees, c.remote_queued_blocks), (1, 0), "direct");
    // SAFETY: none — the misuse under test; the call must not return.
    unsafe { h.deallocate(p, heap_block()) };
    unreachable!("a second direct cross-shard free of a heap block returned");
}

/// A home free is sized: it parks the block in the magazine its layout
/// names without reading the block, so a wrong layout is caught where
/// the block is next touched — the flush or drain of that magazine.
#[test]
fn home_free_with_another_class_layout_aborts() {
    if !in_child(
        "home_free_with_another_class_layout_aborts",
        "freed with another size class's layout",
    ) {
        return;
    }
    let h = HermesHeap::new(HermesHeapConfig::small()).unwrap();
    let class_a = Layout::from_size_align(256, 16).unwrap();
    let class_b = Layout::from_size_align(512, 16).unwrap();
    let p = h.allocate(class_a).unwrap();
    // SAFETY: none — the misuse under test: `p` is live but was
    // allocated with `class_a`.
    unsafe { h.deallocate(p, class_b) };
    h.drain_thread_cache();
    unreachable!("a drain of a block freed with another class's layout returned");
}
