//! Typed errors for the runtime allocation and integrity paths.
//!
//! [`AllocError`] replaces the bare `Option` the allocation front end
//! used to return, and doubles as the error vocabulary of the
//! backend-agnostic `AllocatorBackend` API in `hermes-allocators`: every
//! backend — simulated or real — reports failures through the same
//! three-way split. [`IntegrityError`] replaces the stringly-typed
//! integrity report; its `Display` output is byte-compatible with the
//! old messages so log-matching tooling keeps working.

use std::fmt;

/// Why an allocation could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Every arena (or the backing substrate) is out of memory for this
    /// request; a smaller request or freeing memory may still succeed.
    Exhausted,
    /// The request can never be served by this runtime: it exceeds the
    /// largest region a single arena could hand out.
    Oversized {
        /// Requested size in bytes.
        requested: usize,
        /// The largest request this runtime can serve.
        limit: usize,
    },
    /// The calling thread (or simulated process) is not registered with
    /// the substrate serving it. Produced by backends whose domain
    /// requires registration — e.g. a simulated allocator whose process
    /// was removed from the OS model.
    UnregisteredThread,
    /// A file-backed operation named a file the substrate does not know.
    /// Produced by the services' file stores, which share this error
    /// vocabulary; distinct from [`AllocError::Exhausted`] so pressure
    /// matrices attribute failures truthfully.
    UnknownFile,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Exhausted => write!(f, "allocator exhausted"),
            AllocError::Oversized { requested, limit } => {
                write!(
                    f,
                    "request of {requested} bytes exceeds the {limit}-byte limit"
                )
            }
            AllocError::UnregisteredThread => write!(f, "calling thread is not registered"),
            AllocError::UnknownFile => write!(f, "file is not registered with the backing store"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A structural invariant violated inside one heap or large-arena walk.
///
/// Offsets are arena-relative byte offsets of the offending chunk or
/// free range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityViolation {
    /// A chunk's size word is below the minimum or misaligned.
    BadChunkSize {
        /// Offset of the chunk.
        off: usize,
        /// The bad size value.
        size: usize,
    },
    /// A chunk's `prev_size` stamp disagrees with its predecessor.
    PrevSizeMismatch {
        /// Offset of the chunk carrying the stamp.
        off: usize,
        /// The stamped value.
        stamped: usize,
        /// The predecessor's actual size.
        actual: usize,
        /// Offset of the predecessor.
        prev_off: usize,
    },
    /// Two free chunks are physically adjacent (missed coalescing).
    AdjacentFreeChunks {
        /// Offset of the earlier chunk.
        prev_off: usize,
        /// Offset of the later chunk.
        off: usize,
    },
    /// The chunk walk did not land exactly on the top chunk.
    WalkOverrun {
        /// Where the walk ended.
        off: usize,
        /// Where the top chunk starts.
        top: usize,
    },
    /// An in-use chunk is linked into a free bin.
    InUseChunkBinned {
        /// Bin index.
        bin: usize,
        /// Offset of the chunk.
        off: usize,
    },
    /// A chunk sits in a bin that does not match its size class.
    MisfiledChunk {
        /// Bin index it was found in.
        bin: usize,
        /// Offset of the chunk.
        off: usize,
        /// Its size.
        size: usize,
    },
    /// A doubly-linked free-list back pointer is inconsistent.
    BrokenBackLink {
        /// Bin index.
        bin: usize,
        /// Offset of the chunk with the bad link.
        off: usize,
    },
    /// A bin's non-empty bit (or its level's summary bit) disagrees with
    /// the bin's free list.
    BinMapMismatch {
        /// Bin index.
        bin: usize,
    },
    /// Total bin-linked bytes disagree with the walked free bytes.
    BinnedBytesMismatch {
        /// Bytes reachable through the bins.
        linked: usize,
        /// Free bytes seen by the chunk walk.
        walked: usize,
    },
    /// The `stats.binned` counter disagrees with the walked free bytes.
    StatsBinnedMismatch {
        /// The counter value.
        stat: usize,
        /// Free bytes seen by the chunk walk.
        walked: usize,
    },
    /// `stats.in_use` or `stats.live` drifted from the walked truth.
    StatsDrift,
    /// The top chunk starts beyond the program break.
    TopBeyondBreak,
    /// A listed large-arena range is empty, not page-granular, or runs
    /// past the bump frontier.
    BadLargeRange {
        /// Offset of the range.
        off: usize,
        /// Its size.
        size: usize,
    },
    /// Two listed large-arena ranges overlap.
    LargeRangesOverlap {
        /// Offset of the earlier range.
        prev_off: usize,
        /// Offset of the later range.
        off: usize,
    },
    /// Two adjacent listed large-arena ranges of the same warmth were
    /// left unmerged (missed coalescing).
    LargeRangesUnmerged {
        /// Offset of the earlier range.
        prev_off: usize,
        /// Offset of the later range.
        off: usize,
    },
    /// A cold range ends at the bump frontier instead of un-bumping it.
    ColdRangeAtFrontier {
        /// Offset of the range.
        off: usize,
        /// Its size.
        size: usize,
    },
    /// The warm or cold size index disagrees with the free map.
    LargeIndexMismatch {
        /// Which index.
        warm: bool,
    },
    /// The warm (`pool_bytes`) or cold (`extent_bytes`) gauge disagrees
    /// with the sum of the listed ranges.
    LargeGaugeMismatch {
        /// Which gauge.
        warm: bool,
        /// The gauge's value.
        gauge: usize,
        /// The listed ranges' sum.
        listed: usize,
    },
    /// Live, listed and in-flight bytes do not add up to the bump
    /// frontier.
    LargeBytesUnbalanced {
        /// Their sum.
        accounted: usize,
        /// The frontier's offset.
        frontier: usize,
    },
}

/// `"warm"` or `"cold"`.
fn warmth(warm: bool) -> &'static str {
    if warm {
        "warm"
    } else {
        "cold"
    }
}

impl fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IntegrityViolation::BadChunkSize { off, size } => {
                write!(f, "chunk {off:#x}: bad size {size}")
            }
            IntegrityViolation::PrevSizeMismatch {
                off,
                stamped,
                actual,
                prev_off,
            } => write!(
                f,
                "chunk {off:#x}: prev_size {stamped} != {actual} (prev at {prev_off:#x})"
            ),
            IntegrityViolation::AdjacentFreeChunks { prev_off, off } => {
                write!(f, "adjacent free chunks at {prev_off:#x} and {off:#x}")
            }
            IntegrityViolation::WalkOverrun { off, top } => {
                write!(f, "chunk walk overran top: {off:#x} vs {top:#x}")
            }
            IntegrityViolation::InUseChunkBinned { bin, off } => {
                write!(f, "bin {bin}: in-use chunk {off:#x} linked")
            }
            IntegrityViolation::MisfiledChunk { bin, off, size } => {
                write!(f, "bin {bin}: chunk {off:#x} size {size} misfiled")
            }
            IntegrityViolation::BrokenBackLink { bin, off } => {
                write!(f, "bin {bin}: back-link broken at {off:#x}")
            }
            IntegrityViolation::BinMapMismatch { bin } => {
                write!(f, "bin {bin}: bitmap disagrees with free list")
            }
            IntegrityViolation::BinnedBytesMismatch { linked, walked } => {
                write!(f, "binned {linked} != walked free {walked}")
            }
            IntegrityViolation::StatsBinnedMismatch { stat, walked } => {
                write!(f, "stats.binned {stat} != {walked}")
            }
            IntegrityViolation::StatsDrift => write!(f, "in-use stats drift"),
            IntegrityViolation::TopBeyondBreak => write!(f, "top beyond break"),
            IntegrityViolation::BadLargeRange { off, size } => {
                write!(f, "large range {off:#x}: bad size {size}")
            }
            IntegrityViolation::LargeRangesOverlap { prev_off, off } => {
                write!(f, "large ranges at {prev_off:#x} and {off:#x} overlap")
            }
            IntegrityViolation::LargeRangesUnmerged { prev_off, off } => {
                write!(
                    f,
                    "adjacent large ranges at {prev_off:#x} and {off:#x} unmerged"
                )
            }
            IntegrityViolation::ColdRangeAtFrontier { off, size } => {
                write!(
                    f,
                    "cold large range {off:#x} (+{size}) ends at the frontier"
                )
            }
            IntegrityViolation::LargeIndexMismatch { warm } => {
                write!(
                    f,
                    "{} large index disagrees with the free map",
                    warmth(warm)
                )
            }
            IntegrityViolation::LargeGaugeMismatch {
                warm,
                gauge,
                listed,
            } => write!(f, "{} large bytes {gauge} != listed {listed}", warmth(warm)),
            IntegrityViolation::LargeBytesUnbalanced {
                accounted,
                frontier,
            } => write!(
                f,
                "live + listed + in-flight large bytes {accounted} != frontier {frontier}"
            ),
        }
    }
}

/// An integrity-check failure, optionally attributed to one arena of a
/// multi-shard runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityError {
    /// Index of the offending arena (`None` for a bare `RawHeap`).
    pub arena: Option<usize>,
    /// The violated invariant.
    pub violation: IntegrityViolation,
}

impl IntegrityError {
    /// Wraps a violation with no arena attribution.
    pub fn new(violation: IntegrityViolation) -> Self {
        IntegrityError {
            arena: None,
            violation,
        }
    }

    /// Returns a copy attributed to arena `index`.
    pub fn with_arena(mut self, index: usize) -> Self {
        self.arena = Some(index);
        self
    }
}

impl From<IntegrityViolation> for IntegrityError {
    fn from(violation: IntegrityViolation) -> Self {
        IntegrityError::new(violation)
    }
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.arena {
            Some(i) => write!(f, "arena {i}: {}", self.violation),
            None => write!(f, "{}", self.violation),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Reports caller misuse the allocator cannot survive — a free of memory
/// it does not own, a second free of a large block, or a free of one
/// whose header is corrupt — and aborts. `msg` goes to stderr in one
/// `write_all`: no formatting and no allocation, so this is safe inside
/// `GlobalAlloc::dealloc`.
pub(crate) fn misuse_abort(msg: &str) -> ! {
    use std::io::Write;
    let _ = std::io::stderr().write_all(msg.as_bytes());
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_error_displays() {
        assert_eq!(AllocError::Exhausted.to_string(), "allocator exhausted");
        assert!(AllocError::Oversized {
            requested: 10,
            limit: 5
        }
        .to_string()
        .contains("exceeds"));
        assert!(AllocError::UnregisteredThread
            .to_string()
            .contains("not registered"));
        assert!(AllocError::UnknownFile
            .to_string()
            .contains("not registered"));
    }

    #[test]
    fn integrity_error_display_matches_legacy_strings() {
        // The messages below are byte-for-byte the old `String` payloads.
        let e = IntegrityError::from(IntegrityViolation::BadChunkSize {
            off: 0x40,
            size: 17,
        });
        assert_eq!(e.to_string(), "chunk 0x40: bad size 17");
        let e = e.with_arena(3);
        assert_eq!(e.to_string(), "arena 3: chunk 0x40: bad size 17");
        assert_eq!(
            IntegrityViolation::AdjacentFreeChunks {
                prev_off: 0x20,
                off: 0x60
            }
            .to_string(),
            "adjacent free chunks at 0x20 and 0x60"
        );
        assert_eq!(
            IntegrityViolation::BinMapMismatch { bin: 70 }.to_string(),
            "bin 70: bitmap disagrees with free list"
        );
        assert_eq!(
            IntegrityViolation::StatsDrift.to_string(),
            "in-use stats drift"
        );
        assert_eq!(
            IntegrityViolation::TopBeyondBreak.to_string(),
            "top beyond break"
        );
    }
}
