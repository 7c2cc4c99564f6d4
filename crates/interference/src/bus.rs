//! The shared memory bus: a single port serializing every off-chip
//! transaction (last-level miss fills and dirty writebacks) of all
//! cores, first come first served.
//!
//! The bus works on *transaction request times*: a core that needs the
//! bus at cycle `t` is granted it at the first cycle `g ≥ t` the bus is
//! free, and `g − t` is the queuing delay charged on top of the core's
//! solo cycle count. Grants are computed from the bus's own history only
//! (no lookahead), so the model is deterministic in the order
//! transactions are presented — which the multi-core engine fixes by
//! always advancing the core with the smallest clock, lowest index on
//! ties.

/// Cycles one transaction occupies the bus: the transfer slot. The
/// end-to-end memory latency itself stays in the hierarchy's memory
/// penalty.
pub(crate) const SERVICE_CYCLES: u32 = 8;

/// Aggregate bus accounting of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusReport {
    /// Transactions granted.
    pub transactions: u64,
    /// Total queuing cycles across all cores.
    pub total_wait: u64,
    /// Cycles the bus spent occupied.
    pub busy_cycles: u64,
}

/// The shared bus state during one engine run; starts idle.
#[derive(Debug, Default)]
pub(crate) struct Bus {
    /// First cycle the bus is free again.
    free_at: u64,
    report: BusReport,
}

impl Bus {
    /// Accounting so far.
    pub(crate) fn report(&self) -> BusReport {
        self.report
    }

    /// Grants a transaction requested at cycle `request`; returns the
    /// grant cycle (`≥ request`). The transaction occupies the bus for
    /// the 8-cycle service slot from the grant.
    pub(crate) fn grant(&mut self, request: u64) -> u64 {
        let service = SERVICE_CYCLES as u64;
        let grant = request.max(self.free_at);
        self.report.transactions += 1;
        self.report.total_wait += grant - request;
        self.report.busy_cycles += service;
        self.free_at = grant + service;
        grant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_round_robin_grants_immediately() {
        let mut bus = Bus::default();
        assert_eq!(bus.grant(100), 100);
        // Next request after the service slot: no wait.
        assert_eq!(bus.grant(108), 108);
        assert_eq!(bus.report().total_wait, 0);
        assert_eq!(bus.report().transactions, 2);
    }

    #[test]
    fn busy_bus_queues_the_second_request() {
        let mut bus = Bus::default();
        bus.grant(100);
        // Requested mid-service: waits until 108.
        assert_eq!(bus.grant(103), 108);
        assert_eq!(bus.report().total_wait, 5);
        assert_eq!(bus.report().busy_cycles, 16);
    }
}
