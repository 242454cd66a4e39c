//! Link latency/bandwidth model.
//!
//! The study routed phones over Wi-Fi through a VPN to the Meddle server.
//! We model the access path as a single bottleneck link with fixed RTT and
//! bandwidth; transfer times drive when simulated responses arrive, which
//! in turn shapes how many interactions (and therefore flows) fit in a
//! 4-minute session.

use crate::clock::SimDuration;

/// A point-to-point link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Round-trip time in milliseconds.
    pub rtt_ms: u64,
    /// Bandwidth in bytes per second (symmetric).
    pub bytes_per_sec: u64,
}

impl Link {
    /// 2016-era phone on home Wi-Fi through a VPN: ~60 ms RTT,
    /// ~2.5 MB/s effective throughput.
    pub fn wifi_vpn() -> Self {
        Link {
            rtt_ms: 60,
            bytes_per_sec: 2_500_000,
        }
    }

    /// Full round-trip delay.
    pub fn round_trip(&self) -> SimDuration {
        SimDuration(self.rtt_ms)
    }

    /// Time to push `bytes` through the link (serialization only).
    pub fn serialization_time(&self, bytes: usize) -> SimDuration {
        if self.bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        SimDuration((bytes as u64 * 1000).div_ceil(self.bytes_per_sec))
    }

    /// Time for a request/response exchange: one RTT plus serialization of
    /// both directions.
    pub fn exchange_time(&self, bytes_up: usize, bytes_down: usize) -> SimDuration {
        self.round_trip() + self.serialization_time(bytes_up) + self.serialization_time(bytes_down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_with_bytes() {
        let l = Link {
            rtt_ms: 10,
            bytes_per_sec: 1000,
        };
        assert_eq!(l.serialization_time(1000), SimDuration(1000));
        assert_eq!(l.serialization_time(1), SimDuration(1));
        assert_eq!(l.serialization_time(0), SimDuration(0));
    }

    #[test]
    fn exchange_includes_rtt() {
        let l = Link {
            rtt_ms: 50,
            bytes_per_sec: 1_000_000,
        };
        let t = l.exchange_time(500, 1500);
        assert!(t >= l.round_trip());
        assert_eq!(t, SimDuration(50 + 1 + 2));
    }

    #[test]
    fn zero_bandwidth_degrades_gracefully() {
        let l = Link {
            rtt_ms: 10,
            bytes_per_sec: 0,
        };
        assert_eq!(l.serialization_time(1_000_000), SimDuration::ZERO);
    }
}

appvsweb_json::impl_json!(struct Link { rtt_ms, bytes_per_sec });
