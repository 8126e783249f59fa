//! The correctness oracle: what every payload carries and what every reply
//! must look like.
//!
//! A payload starts with `(key id, per-key version, writer id, marker)`
//! and is padded with the marker to its size. Each connection writes only
//! its own key range, and servers answer a session in FIFO order, so a read
//! of an own key must return exactly the version of the last write
//! submitted before it; a read of another connection's key must carry the
//! right key id and a version that never goes backwards.

use crate::workloads::MARKER;

pub const HEADER_LEN: usize = 4 + 4 + 1 + MARKER.len();

/// Builds the payload for `(key, version)` written by connection `writer`.
pub fn payload(key: usize, version: u32, writer: u8, size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&(key as u32).to_be_bytes());
    out.extend_from_slice(&version.to_be_bytes());
    out.push(writer);
    while out.len() < size {
        let take = MARKER.len().min(size - out.len());
        out.extend_from_slice(&MARKER[..take]);
    }
    out
}

/// `(key, version, writer)` of a payload, or what is wrong with it.
pub fn parse(data: &[u8]) -> Result<(usize, u32, u8), String> {
    if data.len() < HEADER_LEN {
        return Err(format!("payload of {} bytes is shorter than its header", data.len()));
    }
    if &data[9..HEADER_LEN] != MARKER {
        return Err("payload marker is damaged".to_string());
    }
    let key = u32::from_be_bytes(data[..4].try_into().expect("4 bytes")) as usize;
    let version = u32::from_be_bytes(data[4..8].try_into().expect("4 bytes"));
    Ok((key, version, data[8]))
}

/// Version bookkeeping of one connection.
#[derive(Debug)]
pub struct Versions {
    conn: usize,
    conns: usize,
    per_shard: usize,
    /// Last version this connection *submitted* per own key.
    submitted: Vec<u32>,
    /// Last version this connection *saw acknowledged or read* per key.
    seen: Vec<u32>,
}

impl Versions {
    pub fn new(total_keys: usize, per_shard: usize, conn: usize, conns: usize) -> Versions {
        Versions {
            conn,
            conns,
            per_shard,
            submitted: vec![0; total_keys],
            seen: vec![0; total_keys],
        }
    }

    pub fn owns(&self, key: usize) -> bool {
        key % self.per_shard % self.conns == self.conn
    }

    /// Allocates the next version of an own key.
    pub fn bump(&mut self, key: usize) -> u32 {
        debug_assert!(self.owns(key));
        self.submitted[key] += 1;
        self.submitted[key]
    }

    /// What a read of `key` submitted now must return: `Some(exact)` for an
    /// own key, `None` when only monotonicity can be checked.
    pub fn expect_now(&self, key: usize) -> Option<u32> {
        self.owns(key).then(|| self.submitted[key])
    }

    /// Checks a `get_data` reply against the expectation captured at submit.
    pub fn check_read(
        &mut self,
        key: usize,
        expected: Option<u32>,
        size: usize,
        data: &[u8],
    ) -> Result<(), String> {
        let (got_key, version, _writer) = parse(data)?;
        if got_key != key {
            return Err(format!("read of key {key} returned key {got_key}"));
        }
        if data.len() != size {
            return Err(format!("key {key}: {} bytes, expected {size}", data.len()));
        }
        match expected {
            Some(exact) if version != exact => {
                Err(format!("own key {key}: version {version}, last acknowledged {exact}"))
            }
            None if version < self.seen[key] => {
                Err(format!("key {key}: version went back {} -> {version}", self.seen[key]))
            }
            _ => {
                self.seen[key] = version;
                Ok(())
            }
        }
    }

    /// Records that the write of `(key, version)` was acknowledged.
    pub fn acked(&mut self, key: usize, version: u32) {
        self.seen[key] = self.seen[key].max(version);
    }

    /// `(key, version)` of every own key, as last acknowledged.
    pub fn own_acked(&self) -> Vec<(usize, u32)> {
        (0..self.seen.len())
            .filter(|&key| self.owns(key))
            .map(|key| (key, self.seen[key]))
            .collect()
    }
}

/// Whether `haystack` contains the plaintext marker.
pub fn contains_marker(haystack: &[u8]) -> bool {
    haystack.windows(MARKER.len()).any(|window| window == MARKER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrips_and_has_the_exact_size() {
        for size in [HEADER_LEN, 128, 1_024, 4_096] {
            let data = payload(1_234, 56, 1, size);
            assert_eq!(data.len(), size);
            assert_eq!(parse(&data), Ok((1_234, 56, 1)));
            assert!(contains_marker(&data));
        }
        assert!(parse(&[0u8; 8]).is_err());
        let mut damaged = payload(1, 1, 0, 64);
        damaged[12] ^= 1;
        assert!(parse(&damaged).is_err());
    }

    #[test]
    fn own_reads_are_exact_and_foreign_reads_monotone() {
        let mut versions = Versions::new(8, 8, 0, 2);
        assert!(versions.owns(4) && !versions.owns(5));
        let v1 = versions.bump(4);
        let expected = versions.expect_now(4);
        assert_eq!(expected, Some(1));
        assert!(versions.check_read(4, expected, 64, &payload(4, v1, 0, 64)).is_ok());
        assert!(versions.check_read(4, expected, 64, &payload(4, 0, 0, 64)).is_err(), "stale");
        assert!(versions.check_read(4, expected, 64, &payload(6, 1, 0, 64)).is_err(), "wrong key");
        assert!(versions.check_read(4, expected, 32, &payload(4, 1, 0, 64)).is_err(), "size");

        assert_eq!(versions.expect_now(5), None);
        assert!(versions.check_read(5, None, 64, &payload(5, 3, 1, 64)).is_ok());
        assert!(versions.check_read(5, None, 64, &payload(5, 3, 1, 64)).is_ok());
        assert!(versions.check_read(5, None, 64, &payload(5, 2, 1, 64)).is_err(), "went back");
    }

    #[test]
    fn acked_versions_cover_exactly_the_own_range() {
        let mut versions = Versions::new(6, 6, 1, 2);
        let v = versions.bump(3);
        versions.acked(3, v);
        assert_eq!(versions.own_acked(), vec![(1, 0), (3, 1), (5, 0)]);
    }
}
