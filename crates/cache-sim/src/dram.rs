//! Fixed-latency DRAM model behind the memory controller.

use crate::types::Cycle;

/// Main memory with a constant access latency (Table II: 200 cycles) and
/// read/write accounting.
///
/// # Examples
///
/// ```
/// use cache_sim::Dram;
///
/// let mut dram = Dram::new(200);
/// assert_eq!(dram.read(), 200);
/// dram.write();
/// assert_eq!(dram.reads(), 1);
/// assert_eq!(dram.writes(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    latency: Cycle,
    reads: u64,
    writes: u64,
    prefetch_reads: u64,
}

impl Dram {
    /// Creates a DRAM model with the given access latency.
    #[must_use]
    pub fn new(latency: Cycle) -> Self {
        Self {
            latency,
            reads: 0,
            writes: 0,
            prefetch_reads: 0,
        }
    }

    /// Performs a demand read; returns its latency.
    pub fn read(&mut self) -> Cycle {
        self.reads += 1;
        self.latency
    }

    /// Performs a prefetch read (issued by the monitor); returns its latency.
    pub fn prefetch_read(&mut self) -> Cycle {
        self.prefetch_reads += 1;
        self.latency
    }

    /// Performs a writeback. Writebacks are posted (off the critical path),
    /// so no latency is returned.
    pub fn write(&mut self) {
        self.writes += 1;
    }

    /// Configured access latency.
    #[must_use]
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Demand reads served.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Prefetch reads served.
    #[must_use]
    pub fn prefetch_reads(&self) -> u64 {
        self.prefetch_reads
    }

    /// Writebacks absorbed.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_latency_and_counts() {
        let mut d = Dram::new(200);
        assert_eq!(d.read(), 200);
        assert_eq!(d.read(), 200);
        assert_eq!(d.reads(), 2);
        assert_eq!(d.writes(), 0);
    }

    #[test]
    fn writes_are_posted() {
        let mut d = Dram::new(123);
        d.write();
        d.write();
        d.write();
        assert_eq!(d.writes(), 3);
        assert_eq!(d.latency(), 123);
    }

    #[test]
    fn prefetch_reads_counted_separately() {
        let mut d = Dram::new(200);
        d.read();
        d.prefetch_read();
        assert_eq!(d.reads(), 1);
        assert_eq!(d.prefetch_reads(), 1);
    }
}
