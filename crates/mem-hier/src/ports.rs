//! Reusable port arbitration for shared stages.

/// A bank of identical ports, each busy for `occupancy` cycles per
/// granted request; a request at cycle `t` is granted on the
/// earliest-free port, no earlier than `t`.
///
/// This models the L2 TLB's lookup ports (Table III gives each slice 2):
/// when L1 TLB miss floods from all 16 SMs converge on one slice, the
/// grant queue is what turns poor L1 hit rates into execution-time loss.
#[derive(Debug, Clone)]
pub struct Ports {
    /// Next-free cycle per port.
    free_at: Vec<u64>,
    occupancy: u64,
}

impl Ports {
    /// Creates `ports` ports (clamped to at least one), each held for
    /// `occupancy` cycles per grant (clamped to at least one so the bank
    /// always has finite throughput).
    pub fn new(ports: usize, occupancy: u64) -> Self {
        Ports {
            free_at: vec![0; ports.max(1)],
            occupancy: occupancy.max(1),
        }
    }

    /// Grants the earliest-free port at or after `at`; returns the grant
    /// cycle and holds the port for the configured occupancy.
    pub fn acquire(&mut self, at: u64) -> u64 {
        let slot = self
            .free_at
            .iter_mut()
            .min()
            .expect("port banks are sized max(1) at construction"); // simlint: allow(hot-unwrap, reason = "port banks are sized max(1) at construction")
        let grant = at.max(*slot);
        *slot = grant + self.occupancy;
        grant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_port_queues_the_next_request() {
        let mut p = Ports::new(1, 1);
        assert_eq!(p.acquire(10), 10, "free port: immediate grant");
        assert_eq!(p.acquire(10), 11, "port busy for 1 cycle: queued");
    }

    #[test]
    fn parallel_ports_grant_same_cycle() {
        let mut p = Ports::new(2, 1);
        assert_eq!(p.acquire(5), 5);
        assert_eq!(p.acquire(5), 5);
        assert_eq!(p.acquire(5), 6, "third request queues");
    }

    #[test]
    fn occupancy_holds_the_port_longer() {
        let mut p = Ports::new(1, 10);
        assert_eq!(p.acquire(0), 0);
        assert_eq!(p.acquire(0), 10);
        assert_eq!(p.acquire(0), 20);
    }

    #[test]
    fn idle_ports_never_delay() {
        let mut p = Ports::new(2, 4);
        assert_eq!(p.acquire(0), 0);
        // Long idle gap: the port freed long ago.
        assert_eq!(p.acquire(1000), 1000);
    }

    #[test]
    fn zero_geometry_clamps_to_usable() {
        let mut p = Ports::new(0, 0);
        assert_eq!(p.free_at.len(), 1);
        assert_eq!(p.occupancy, 1);
        assert_eq!(p.acquire(0), 0);
        assert_eq!(p.acquire(0), 1);
    }
}
