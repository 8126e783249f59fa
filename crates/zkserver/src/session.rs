//! Client session management.
//!
//! Each connected client owns a session identified by a 64-bit id. Sessions
//! have a timeout; a session that is not touched (by any request or ping)
//! within its timeout expires, and all ephemeral znodes it owns are removed.
//! Time comes from a pluggable [`Clock`]: deterministic tests drive a
//! [`ManualClock`] by hand, while the networked server installs a
//! [`MonotonicClock`] so expiry tracks wall-clock time without ticking.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

/// Length in bytes of a session password. On the wire, a re-attaching
/// client prefixes its interceptor blob with exactly this many password
/// bytes (see [`crate::net`]'s handshake).
pub const SESSION_PASSWORD_LEN: usize = 16;

/// Source of session time in milliseconds.
pub trait Clock: Send + Sync {
    /// The current time in milliseconds. Only differences matter; the epoch is
    /// implementation-defined.
    fn now_ms(&self) -> i64;
}

/// A clock advanced explicitly by the test or simulation driver.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ms: AtomicI64,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `delta_ms`.
    pub fn advance(&self, delta_ms: i64) {
        self.now_ms.fetch_add(delta_ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> i64 {
        self.now_ms.load(Ordering::SeqCst)
    }
}

/// A monotonic real-time clock (milliseconds since the clock was created).
#[derive(Debug)]
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// Creates a clock anchored at the current instant.
    pub fn new() -> Self {
        MonotonicClock { start: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ms(&self) -> i64 {
        self.start.elapsed().as_millis() as i64
    }
}

/// Metadata of one client session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The session id.
    pub id: i64,
    /// Negotiated timeout in milliseconds.
    pub timeout_ms: i64,
    /// Logical time of the last request or ping.
    pub last_seen_ms: i64,
    /// Session password (returned on connect, checked on reconnect).
    pub password: Vec<u8>,
}

impl Session {
    /// True if the session has not been touched within its timeout at `now_ms`.
    pub fn is_expired(&self, now_ms: i64) -> bool {
        now_ms - self.last_seen_ms > self.timeout_ms
    }
}

/// One session's durable record: identity, negotiated timeout, and the
/// password a client must present to re-attach. Persisted in snapshots so a
/// client can resume its session after a full-ensemble power cycle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionRecord {
    /// The session id.
    pub id: i64,
    /// Negotiated timeout in milliseconds.
    pub timeout_ms: i64,
    /// The session password.
    pub password: Vec<u8>,
}

/// Tracks all sessions of one replica.
#[derive(Debug, Default)]
pub struct SessionManager {
    sessions: HashMap<i64, Session>,
    next_id: i64,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SessionManager { sessions: HashMap::new(), next_id: 1 }
    }

    /// Creates an empty manager whose self-allocated session ids start at
    /// `base + 1`. Replicas of a networked ensemble namespace their ids by
    /// replica id so the session owner recorded on replicated ephemeral
    /// znodes is globally unique.
    pub fn with_id_base(base: i64) -> Self {
        SessionManager { sessions: HashMap::new(), next_id: base + 1 }
    }

    /// `(id, timeout_ms)` of every active session, sorted by id. Persisted
    /// in snapshots so ephemeral znodes recovered from disk keep an owner
    /// that can still expire (and be cleaned up) after a restart.
    pub fn session_table(&self) -> Vec<(i64, i64)> {
        let mut table: Vec<(i64, i64)> =
            self.sessions.values().map(|s| (s.id, s.timeout_ms)).collect();
        table.sort_unstable();
        table
    }

    /// The full durable record of every active session, sorted by id. This
    /// is what snapshots persist (passwords included) so clients can
    /// re-attach after a full-ensemble restart.
    pub fn session_records(&self) -> Vec<SessionRecord> {
        let mut records: Vec<SessionRecord> = self
            .sessions
            .values()
            .map(|s| SessionRecord {
                id: s.id,
                timeout_ms: s.timeout_ms,
                password: s.password.clone(),
            })
            .collect();
        records.sort_unstable();
        records
    }

    /// Ids of the sessions whose timeout has elapsed at `now_ms`, without
    /// removing them. The ensemble server uses this to run ephemeral cleanup
    /// through agreement *before* dropping the session.
    pub fn peek_expired(&self, now_ms: i64) -> Vec<i64> {
        self.sessions.values().filter(|s| s.is_expired(now_ms)).map(|s| s.id).collect()
    }

    /// Creates a session with the given timeout, returning its id and password.
    pub fn create_session(&mut self, timeout_ms: i64, now_ms: i64) -> (i64, Vec<u8>) {
        let id = self.next_id;
        self.next_id += 1;
        // A deterministic per-session password (16 bytes derived from the id).
        let password: Vec<u8> =
            (0..16u8).map(|i| (id as u8).wrapping_mul(31).wrapping_add(i)).collect();
        self.sessions.insert(
            id,
            Session {
                id,
                timeout_ms: timeout_ms.max(1),
                last_seen_ms: now_ms,
                password: password.clone(),
            },
        );
        (id, password)
    }

    /// Registers a session under an externally assigned id (used by the
    /// cluster, which makes ids unique across replicas). Returns the password.
    pub fn adopt(&mut self, session_id: i64, timeout_ms: i64, now_ms: i64) -> Vec<u8> {
        let password: Vec<u8> =
            (0..16u8).map(|i| (session_id as u8).wrapping_mul(31).wrapping_add(i)).collect();
        self.sessions.insert(
            session_id,
            Session {
                id: session_id,
                timeout_ms: timeout_ms.max(1),
                last_seen_ms: now_ms,
                password: password.clone(),
            },
        );
        password
    }

    /// Registers a session under an externally assigned id, preserving the
    /// given password (a snapshot-recovered or leader-shipped record). An
    /// empty password falls back to the derived one, so version-1 snapshots
    /// (which carried no passwords) keep their historical behaviour.
    pub fn adopt_with_password(
        &mut self,
        session_id: i64,
        timeout_ms: i64,
        password: &[u8],
        now_ms: i64,
    ) -> Vec<u8> {
        if password.is_empty() {
            return self.adopt(session_id, timeout_ms, now_ms);
        }
        self.sessions.insert(
            session_id,
            Session {
                id: session_id,
                timeout_ms: timeout_ms.max(1),
                last_seen_ms: now_ms,
                password: password.to_vec(),
            },
        );
        password.to_vec()
    }

    /// Re-attaches a client to an existing session: verifies the password
    /// and touches the session. Returns the negotiated timeout on success,
    /// `None` for unknown sessions or a password mismatch.
    pub fn reattach(&mut self, session_id: i64, password: &[u8], now_ms: i64) -> Option<i64> {
        let session = self.sessions.get_mut(&session_id)?;
        if session.password != password {
            return None;
        }
        session.last_seen_ms = now_ms;
        Some(session.timeout_ms)
    }

    /// Marks a session as active at `now_ms`. Returns false for unknown sessions.
    pub fn touch(&mut self, session_id: i64, now_ms: i64) -> bool {
        match self.sessions.get_mut(&session_id) {
            Some(session) => {
                session.last_seen_ms = now_ms;
                true
            }
            None => false,
        }
    }

    /// True if the session exists (expired sessions are removed by
    /// [`SessionManager::expire_sessions`]).
    pub fn is_active(&self, session_id: i64) -> bool {
        self.sessions.contains_key(&session_id)
    }

    /// Looks up a session.
    pub fn get(&self, session_id: i64) -> Option<&Session> {
        self.sessions.get(&session_id)
    }

    /// Closes a session explicitly, returning true if it existed.
    pub fn close_session(&mut self, session_id: i64) -> bool {
        self.sessions.remove(&session_id).is_some()
    }

    /// Removes every session whose timeout elapsed before `now_ms` and returns
    /// their ids (the caller deletes their ephemeral znodes).
    pub fn expire_sessions(&mut self, now_ms: i64) -> Vec<i64> {
        let expired: Vec<i64> =
            self.sessions.values().filter(|s| s.is_expired(now_ms)).map(|s| s.id).collect();
        for id in &expired {
            self.sessions.remove(id);
        }
        expired
    }

    /// Number of active sessions.
    pub fn count(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_touch_and_close() {
        let mut mgr = SessionManager::new();
        let (id, password) = mgr.create_session(10_000, 0);
        assert!(id > 0);
        assert_eq!(password.len(), 16);
        assert!(mgr.is_active(id));
        assert!(mgr.touch(id, 500));
        assert!(!mgr.touch(id + 999, 500));
        assert!(mgr.close_session(id));
        assert!(!mgr.close_session(id));
        assert!(!mgr.is_active(id));
    }

    #[test]
    fn session_ids_are_unique_and_increasing() {
        let mut mgr = SessionManager::new();
        let (a, _) = mgr.create_session(1000, 0);
        let (b, _) = mgr.create_session(1000, 0);
        assert!(b > a);
        assert_eq!(mgr.count(), 2);
    }

    #[test]
    fn sessions_expire_after_timeout() {
        let mut mgr = SessionManager::new();
        let (a, _) = mgr.create_session(1_000, 0);
        let (b, _) = mgr.create_session(10_000, 0);
        assert!(mgr.expire_sessions(500).is_empty());
        mgr.touch(a, 900);
        // `a` was touched at 900 so it survives until 1900; `b` until 10000.
        assert!(mgr.expire_sessions(1_800).is_empty());
        let expired = mgr.expire_sessions(2_500);
        assert_eq!(expired, vec![a]);
        assert!(mgr.is_active(b));
    }

    #[test]
    fn session_records_preserve_passwords_across_adopt() {
        let mut mgr = SessionManager::new();
        let (id, password) = mgr.create_session(5_000, 0);
        let records = mgr.session_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].password, password);

        // A fresh manager (post power cycle) adopts the records verbatim.
        let mut restarted = SessionManager::new();
        for record in &records {
            restarted.adopt_with_password(record.id, record.timeout_ms, &record.password, 0);
        }
        assert_eq!(restarted.session_records(), records);
        // Re-attach succeeds with the original password only.
        assert_eq!(restarted.reattach(id, &password, 100), Some(5_000));
        assert_eq!(restarted.reattach(id, b"wrong password..", 100), None);
        assert_eq!(restarted.reattach(id + 7, &password, 100), None);
    }

    #[test]
    fn empty_password_adoption_derives_the_legacy_one() {
        let mut v1 = SessionManager::new();
        let derived = v1.adopt(42, 1_000, 0);
        let mut v2 = SessionManager::new();
        assert_eq!(v2.adopt_with_password(42, 1_000, &[], 0), derived);
    }

    #[test]
    fn reattach_touches_the_session() {
        let mut mgr = SessionManager::new();
        let (id, password) = mgr.create_session(1_000, 0);
        assert!(mgr.reattach(id, &password, 900).is_some());
        // Touched at 900, so still alive at 1800.
        assert!(mgr.expire_sessions(1_800).is_empty());
    }

    #[test]
    fn expired_check_uses_strict_timeout() {
        let session = Session { id: 1, timeout_ms: 100, last_seen_ms: 0, password: vec![] };
        assert!(!session.is_expired(100));
        assert!(session.is_expired(101));
    }

    #[test]
    fn manual_clock_advances_on_demand() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ms(), 0);
        clock.advance(250);
        clock.advance(50);
        assert_eq!(clock.now_ms(), 300);
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
        assert!(a >= 0);
    }
}
