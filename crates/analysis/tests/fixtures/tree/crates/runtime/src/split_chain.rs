//! hash-iteration fixture: the iteration method starts the line after
//! the hash-ordered binding, so a same-line match misses it. A tie in
//! the `min_by_key` below is decided by hash order.

use std::collections::HashMap;

pub struct History {
    table: HashMap<usize, f64>,
}

impl History {
    pub fn nearest(&self, key: usize) -> Option<f64> {
        self.table
            .iter()
            .min_by_key(|(k, _)| k.abs_diff(key))
            .map(|(_, v)| *v)
    }
}
