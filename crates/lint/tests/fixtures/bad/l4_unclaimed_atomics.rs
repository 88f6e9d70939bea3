//! Bad fixture for L4: uses atomics but no protocol of the manifest the
//! test supplies covers it.

use ft_sync::atomic::{AtomicU64, Ordering};

pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::SeqCst);
}
