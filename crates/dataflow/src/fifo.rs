//! Bounded FIFO channel model.
//!
//! The hardware communicates exclusively over FIFOs "using blocking reads
//! and writes" (paper Section 3.2). In the cycle-level simulation a full
//! FIFO back-pressures its producer and an empty FIFO stalls its
//! consumer; this type counts both (they show in its `Debug` form).
//! Its high-water mark verifies the paper's sizing rule is tight.

use std::collections::VecDeque;

/// A bounded single-producer/single-consumer FIFO of `f32` elements with
/// occupancy and stall statistics.
#[derive(Clone, Debug)]
pub struct Fifo {
    name: String,
    capacity: usize,
    buf: VecDeque<f32>,
    pushes: u64,
    pops: u64,
    high_water: usize,
    write_stalls: u64,
    read_stalls: u64,
}

impl Fifo {
    /// Creates a FIFO with the given capacity (depth ≥ 1).
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity >= 1, "FIFO depth must be at least 1");
        Fifo {
            name: name.into(),
            capacity,
            buf: VecDeque::with_capacity(capacity),
            pushes: 0,
            pops: 0,
            high_water: 0,
            write_stalls: 0,
            read_stalls: 0,
        }
    }

    /// The FIFO's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True when at capacity (writes would block).
    fn is_full(&self) -> bool {
        self.buf.len() >= self.capacity
    }

    /// Attempts a non-blocking write; returns `false` (and counts a
    /// write stall) when full.
    pub fn try_push(&mut self, v: f32) -> bool {
        if self.is_full() {
            self.write_stalls += 1;
            return false;
        }
        self.buf.push_back(v);
        self.pushes += 1;
        self.high_water = self.high_water.max(self.buf.len());
        true
    }

    /// Attempts a non-blocking read; returns `None` (and counts a read
    /// stall) when empty.
    pub fn try_pop(&mut self) -> Option<f32> {
        match self.buf.pop_front() {
            Some(v) => {
                self.pops += 1;
                Some(v)
            }
            None => {
                self.read_stalls += 1;
                None
            }
        }
    }

    /// Peeks at the head without consuming it (no stall accounting).
    pub fn peek(&self) -> Option<f32> {
        self.buf.front().copied()
    }

    /// Highest occupancy ever reached.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn push_pop_preserves_order() {
        let mut f = Fifo::new("t", 4);
        for v in [1.0, 2.0, 3.0] {
            assert!(f.try_push(v));
        }
        assert_eq!(f.try_pop(), Some(1.0));
        assert_eq!(f.try_pop(), Some(2.0));
        assert_eq!(f.try_pop(), Some(3.0));
        assert_eq!(f.try_pop(), None);
    }

    #[test]
    fn capacity_enforced_and_stalls_counted() {
        let mut f = Fifo::new("t", 2);
        assert!(f.try_push(1.0));
        assert!(f.try_push(2.0));
        assert!(!f.try_push(3.0));
        assert!(!f.try_push(3.0));
        assert_eq!(f.write_stalls, 2);
        f.try_pop();
        assert!(f.try_push(3.0));
        assert_eq!(f.pushes, 3);
    }

    #[test]
    fn read_stalls_counted() {
        let mut f = Fifo::new("t", 2);
        assert!(f.try_pop().is_none());
        assert_eq!(f.read_stalls, 1);
        f.try_push(1.0);
        assert!(f.try_pop().is_some());
        assert_eq!(f.read_stalls, 1);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut f = Fifo::new("t", 8);
        for v in 0..5 {
            f.try_push(v as f32);
        }
        for _ in 0..5 {
            f.try_pop();
        }
        f.try_push(9.0);
        assert_eq!(f.high_water(), 5);
    }

    #[test]
    fn conservation_invariant() {
        let mut f = Fifo::new("t", 3);
        for i in 0..10 {
            f.try_push(i as f32);
            if i % 2 == 0 {
                f.try_pop();
            }
            // Everything written was either read or is still buffered.
            assert_eq!(f.pushes, f.pops + f.len() as u64);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = Fifo::new("t", 2);
        f.try_push(7.0);
        assert_eq!(f.peek(), Some(7.0));
        assert_eq!(f.len(), 1);
        assert_eq!(f.try_pop(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_depth_rejected() {
        Fifo::new("t", 0);
    }
}
