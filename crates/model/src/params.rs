//! LogGPS parameter vector and protocol rules.
//!
//! Parameter glossary (paper §II-A):
//!
//! * `L` — maximum network latency between two processors (ns). The central
//!   quantity of the paper.
//! * `o` — CPU overhead per message (ns), paid by sender and receiver.
//! * `g` — gap between consecutive messages of one process (ns); the paper
//!   omits it from the analysis because `o > g` on its clusters, but the
//!   simulator honours it.
//! * `G` — gap per byte (ns/byte) = inverse bandwidth; a message of `s`
//!   bytes occupies the wire for `(s−1)·G` after the first byte.
//! * `O` — CPU overhead per byte; negligible with high overlap (Hoefler et
//!   al.), dropped by the LogGPS specialisation but kept for completeness.
//! * `S` — rendezvous threshold (bytes): messages of at least `S` bytes
//!   synchronise sender and receiver before transmission.
//! * `P` — number of processes.

/// Transmission protocol selected for a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Fire-and-forget: the message is buffered by the transport.
    Eager,
    /// Handshake (REQ/data/FIN) before the payload moves (paper Fig. 14).
    Rendezvous,
}

/// A LogGPS model configuration. All times in nanoseconds, sizes in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGPSParams {
    /// Network latency `L` (ns).
    pub l: f64,
    /// Per-message CPU overhead `o` (ns).
    pub o: f64,
    /// Inter-message gap `g` (ns).
    pub g: f64,
    /// Per-byte gap `G` (ns/byte).
    pub big_g: f64,
    /// Per-byte CPU overhead `O` (ns/byte); zero under LogGPS.
    pub big_o: f64,
    /// Rendezvous threshold `S` (bytes).
    pub s: u64,
    /// Process count `P`.
    pub p: u32,
}

impl LogGPSParams {
    /// The 188-node CSCS test-bed cluster of the validation experiments
    /// (§III-B): `L = 3.0 µs`, `G = 0.018 ns/B`, `S = 256 KiB`. The
    /// per-message overhead `o` is application-specific in the paper
    /// (Table II); 5 µs is the LULESH/HPCG ballpark and callers override it.
    pub fn cscs_testbed(p: u32) -> Self {
        Self {
            l: 3_000.0,
            o: 5_000.0,
            g: 0.0,
            big_g: 0.018,
            big_o: 0.0,
            s: 256 * 1024,
            p,
        }
    }

    /// Piz Daint as measured for the ICON case study (§IV): `L = 1.4 µs`,
    /// `G = 0.013 ns/B`, `S = 256 KiB`, `o` between 6.03 and 8.5 µs
    /// depending on scale.
    pub fn piz_daint(p: u32) -> Self {
        Self {
            l: 1_400.0,
            o: 7_400.0,
            g: 0.0,
            big_g: 0.013,
            big_o: 0.0,
            s: 256 * 1024,
            p,
        }
    }

    /// A microsecond-scale didactic configuration matching the paper's
    /// running example (Fig. 4b): `o = 0`, `G = 5 ns/B`, eager everywhere.
    pub fn didactic() -> Self {
        Self {
            l: 0.0,
            o: 0.0,
            g: 0.0,
            big_g: 5.0,
            big_o: 0.0,
            s: u64::MAX,
            p: 2,
        }
    }

    /// Override the per-message overhead (the paper matches `o` per
    /// application from Netgauge outputs, Table II).
    pub fn with_o(mut self, o_ns: f64) -> Self {
        self.o = o_ns;
        self
    }

    /// Override the base latency.
    pub fn with_l(mut self, l_ns: f64) -> Self {
        self.l = l_ns;
        self
    }

    /// Protocol used for a message of `bytes` (eager strictly below `S`).
    pub fn protocol(&self, bytes: u64) -> Protocol {
        if bytes < self.s {
            Protocol::Eager
        } else {
            Protocol::Rendezvous
        }
    }

    /// Serialisation time of the message body after its first byte:
    /// `(s−1)·G` (LogGP). Zero-byte messages cost nothing on the wire.
    pub fn transmission(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            (bytes.saturating_sub(1)) as f64 * self.big_g
        }
    }

    /// End-to-end delivery time of an eager message once it leaves the
    /// sender: `L + (s−1)·G`.
    pub fn eager_wire_time(&self, bytes: u64) -> f64 {
        self.l + self.transmission(bytes)
    }
}

impl Default for LogGPSParams {
    fn default() -> Self {
        Self::cscs_testbed(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_switch_at_threshold() {
        let p = LogGPSParams::cscs_testbed(2);
        assert_eq!(p.protocol(0), Protocol::Eager);
        assert_eq!(p.protocol(256 * 1024 - 1), Protocol::Eager);
        assert_eq!(p.protocol(256 * 1024), Protocol::Rendezvous);
    }

    #[test]
    fn transmission_cost() {
        let p = LogGPSParams::didactic();
        // 4-byte message at G = 5 ns/B: (4-1)*5 = 15 ns (paper Fig. 4b).
        assert_eq!(p.transmission(4), 15.0);
        assert_eq!(p.transmission(0), 0.0);
        assert_eq!(p.transmission(1), 0.0);
    }

    #[test]
    fn builders_override() {
        let p = LogGPSParams::cscs_testbed(128).with_o(6_000.0).with_l(10.0);
        assert_eq!(p.o, 6_000.0);
        assert_eq!(p.l, 10.0);
        assert_eq!(p.p, 128);
    }

    #[test]
    fn wire_time_composes() {
        let p = LogGPSParams::didactic().with_l(100.0);
        assert_eq!(p.eager_wire_time(4), 115.0);
    }
}
