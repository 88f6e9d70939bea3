//! Source file referenced by the L8 freshness tests: the stamp of the
//! protocol listing it is computed over the atomic code lines below.

use ft_sync::atomic::{AtomicU64, Ordering};

pub fn bump(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::SeqCst)
}
