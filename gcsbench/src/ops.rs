//! The benchmark's own op encoding and open-loop schedule.
//!
//! Every op carries a little-endian `u32` op id in its first four bytes;
//! the rest of the payload is a pure function of `(seed, id)`, so a
//! delivery can be checked byte for byte without keeping the sent bytes.
//! On bank workloads bytes 4..13 are a `BankOp` encoding.

use gcs_core::MessageClass;
use gcs_kernel::{ProcessId, Time};
use gcs_replication::bank::BankOp;

/// SplitMix64: a tiny seeded generator, so inputs depend on `--seed` only.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the ops of one run are generated.
#[derive(Clone, Copy, Debug)]
pub struct OpSpec {
    pub seed: u64,
    /// Payload size in bytes (at least 4, or 13 for bank ops).
    pub size: usize,
    /// Round-robin senders are `first_sender..members`.
    pub first_sender: usize,
    pub members: usize,
    /// Carry the §4.2 bank mix (90% deposits, 10% withdrawals).
    pub bank: bool,
}

/// Withdrawal share of the bank mix, in percent.
const WITHDRAW_PCT: u64 = 10;

impl OpSpec {
    pub fn sender(&self, id: u32) -> ProcessId {
        let span = self.members - self.first_sender;
        ProcessId::new((self.first_sender + id as usize % span) as u32)
    }

    pub fn bank_op(&self, id: u32) -> Option<BankOp> {
        if !self.bank {
            return None;
        }
        let r = mix(self.seed ^ (u64::from(id) << 20) ^ 0xB4);
        let amount = 1 + (r >> 8) % 100;
        Some(if r % 100 < WITHDRAW_PCT {
            BankOp::Withdraw(amount)
        } else {
            BankOp::Deposit(amount)
        })
    }

    /// Generic-broadcast class of op `id`, or `None` for an abcast.
    pub fn class(&self, id: u32) -> Option<MessageClass> {
        self.bank_op(id).map(|op| op.class())
    }

    /// Writes op `id`'s payload into `buf` (cleared first).
    pub fn write(&self, id: u32, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&id.to_le_bytes());
        if let Some(op) = self.bank_op(id) {
            buf.extend_from_slice(&op.encode());
        }
        let salt = mix(self.seed ^ u64::from(id));
        let mut k = buf.len();
        while buf.len() < self.size {
            buf.push((salt >> ((k % 8) * 8)) as u8 ^ k as u8);
            k += 1;
        }
    }

    /// The op id a delivered payload claims, checked byte for byte against
    /// the payload that op must carry.
    pub fn verify(
        &self,
        payload: &[u8],
        issued: u32,
        scratch: &mut Vec<u8>,
    ) -> Result<u32, String> {
        let id = payload
            .get(..4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
            .ok_or_else(|| format!("payload of {} bytes carries no op id", payload.len()))?;
        if id >= issued {
            return Err(format!("op id {id} was never issued ({issued} issued)"));
        }
        self.write(id, scratch);
        if scratch.as_slice() != payload {
            return Err(format!(
                "op {id}: delivered payload differs from the one sent"
            ));
        }
        Ok(id)
    }
}

/// Fixed-rate arrivals: op `i` is due at `start + i / rate`, whether or not
/// earlier ops have completed.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Time,
    pub interval_ns: u64,
}

impl Schedule {
    pub fn new(start: Time, rate_per_s: u64) -> Self {
        Schedule {
            start,
            interval_ns: 1_000_000_000 / rate_per_s,
        }
    }

    pub fn due(&self, id: u32) -> Time {
        Time::from_nanos(self.start.as_nanos() + u64::from(id) * self.interval_ns)
    }

    /// The ids of the ops due in `[from, to)`.
    pub fn ids_in(&self, from: Time, to: Time) -> std::ops::Range<u32> {
        let first = |t: Time| {
            let after = t.as_nanos().saturating_sub(self.start.as_nanos());
            after.div_ceil(self.interval_ns) as u32
        };
        first(from)..first(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bank: bool) -> OpSpec {
        OpSpec {
            seed: 7,
            size: 16,
            first_sender: 1,
            members: 5,
            bank,
        }
    }

    #[test]
    fn payload_round_trips_and_detects_corruption() {
        let s = spec(true);
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        s.write(70_000, &mut buf);
        assert_eq!(buf.len(), 16);
        assert_eq!(s.verify(&buf, 70_001, &mut scratch), Ok(70_000));
        assert!(s.verify(&buf, 70_000, &mut scratch).is_err(), "unissued id");
        buf[9] ^= 1;
        assert!(
            s.verify(&buf, 70_001, &mut scratch).is_err(),
            "corrupt byte"
        );
        assert!(BankOp::decode(&{
            s.write(3, &mut buf);
            buf[4..13].to_vec()
        })
        .is_some());
    }

    #[test]
    fn ids_in_covers_each_op_once() {
        let s = Schedule::new(Time::from_millis(1), 1_000);
        assert_eq!(s.ids_in(Time::from_millis(1), Time::from_millis(4)), 0..3);
        assert_eq!(s.ids_in(Time::from_millis(4), Time::from_millis(6)), 3..5);
        assert_eq!(s.ids_in(Time::ZERO, Time::from_micros(1_500)), 0..1);
    }

    #[test]
    fn senders_round_robin_and_skip_the_victim() {
        let s = spec(false);
        let got: Vec<usize> = (0..5).map(|i| s.sender(i).index()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 1]);
    }
}
