//! Known-bad: a `MemStats` with a dead counter (only `reset` touches it)
//! and an unverified one (mutated, never asserted). Parsed as
//! `crates/types/src/stats.rs`.

pub struct MemStats {
    pub reads: u64,
    pub dead_counter: u64,
    pub untested_counter: u64,
}

impl MemStats {
    pub fn bump(&mut self) {
        self.reads += 1;
        self.untested_counter += 1;
    }

    pub fn reset(&mut self) {
        self.reads = 0;
        self.dead_counter = 0;
        self.untested_counter = 0;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_are_counted() {
        assert_eq!(MemStats::default().reads, 0);
    }
}
