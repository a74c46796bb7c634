//! Fixture: documented unsafe, scanned under the allowlisted
//! `crates/server/src/signal.rs` path.

pub fn documented(ptr: *const u8) -> u8 {
    // SAFETY: caller guarantees `ptr` is valid for reads.
    unsafe { *ptr }
}

// SAFETY: callers must verify the target feature at runtime; the comment
// may sit above an attribute stack like this one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
pub unsafe fn above_attributes() {}
