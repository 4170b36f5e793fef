//! TCP latency arithmetic.
//!
//! The simulation does not model connection state, retransmission or
//! windows; what the experiments need is latency accounting: a
//! connection costs a handshake (1.5 RTT before data can flow) and each
//! message costs per-byte serialization plus propagation.

use simcore::SimDuration;

/// Latency arithmetic for a link.
#[derive(Clone, Copy, Debug)]
pub struct TcpCostModel {
    /// Round-trip time of the link.
    pub rtt: SimDuration,
    /// Serialization cost per payload byte.
    pub per_byte: SimDuration,
    /// Fixed per-message software overhead (stack traversal, syscall/
    /// hypercall, interrupt).
    pub per_message: SimDuration,
}

impl TcpCostModel {
    /// A loopback-ish link between the SEUSS kernel and a UC on the same
    /// machine: no propagation, just stack traversal.
    pub fn local() -> Self {
        TcpCostModel {
            rtt: SimDuration::from_micros(20),
            per_byte: SimDuration::from_nanos(1),
            per_message: SimDuration::from_micros(15),
        }
    }

    /// A 10 GbE datacenter link (the paper's testbed network).
    pub fn datacenter() -> Self {
        TcpCostModel {
            rtt: SimDuration::from_micros(200),
            per_byte: SimDuration::from_nanos(1),
            per_message: SimDuration::from_micros(30),
        }
    }

    /// Time from SYN to data-ready (1.5 RTT plus two message overheads).
    pub fn handshake(&self) -> SimDuration {
        self.rtt + self.rtt / 2 + self.per_message * 2
    }

    /// One-way latency for a message of `bytes` payload.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        self.rtt / 2 + self.per_message + self.per_byte * bytes
    }

    /// Request/response exchange latency (request out, response back),
    /// excluding remote processing time.
    pub fn round_trip(&self, req_bytes: u64, resp_bytes: u64) -> SimDuration {
        self.transfer(req_bytes) + self.transfer(resp_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_is_1_5_rtt_plus_overheads() {
        let m = TcpCostModel {
            rtt: SimDuration::from_micros(100),
            per_byte: SimDuration::ZERO,
            per_message: SimDuration::from_micros(10),
        };
        assert_eq!(m.handshake(), SimDuration::from_micros(170));
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let m = TcpCostModel::local();
        assert!(m.transfer(100_000) > m.transfer(100));
        let small = m.transfer(0);
        assert_eq!(small, m.rtt / 2 + m.per_message);
    }

    #[test]
    fn round_trip_sums_directions() {
        let m = TcpCostModel::local();
        assert_eq!(m.round_trip(10, 20), m.transfer(10) + m.transfer(20));
    }
}
