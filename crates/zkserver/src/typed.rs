//! The shared typed operation layer.
//!
//! The socket client [`crate::ZkTcpClient`] — and through it SecureKeeper's
//! encrypted sessions, which differ only in their credentials — exposes
//! ZooKeeper's convenience surface (`create`, `get_data`, `set_data`,
//! `delete`, `get_children`, `exists`, `ping`, `multi`). This module holds
//! the parts of that surface that do not depend on the transport:
//!
//! * the `expect_*` decoders that turn a wire [`Response`] into the typed
//!   result or the typed [`ZkError`], so the response-match boilerplate lives
//!   in exactly one place;
//! * the [`MultiDispatch`] trait — "I can send a `multi` and return its
//!   per-operation results" — which is the only thing a transport must
//!   implement to get the [`Txn`] builder;
//! * the [`Txn`] builder itself:
//!   `client.txn().create(..).check(..).set_data(..).delete(..).commit()`.
//!
//! `commit` distinguishes the two failure planes: a transport/session error
//! surfaces as the client's own error type, while a server-side abort maps
//! the *first failing sub-operation* onto the matching typed error
//! (`BadVersion`, `NoNode`, `NodeExists`, ...) with that operation's path —
//! never a generic marshalling failure. Callers that need the full
//! per-operation result vector of an aborted transaction call
//! [`MultiDispatch::multi`] directly, which reports aborts in-band.

use jute::multi::{first_error_of, Op, OpResult};
use jute::records::{
    CheckVersionRequest, CreateMode, CreateRequest, DeleteRequest, ErrorCode, SetDataRequest, Stat,
};
use jute::Response;

use crate::error::ZkError;
use crate::ops::error_from_code;

/// The catch-all for a response variant that does not match the request.
pub fn unexpected_response(response: &Response) -> ZkError {
    ZkError::Marshalling { reason: format!("unexpected response {response:?}") }
}

/// Decodes a CREATE response into the final path.
///
/// # Errors
///
/// Maps error responses onto the typed [`ZkError`] for `path`.
pub fn expect_create(response: Response, path: &str) -> Result<String, ZkError> {
    match response {
        Response::Create(create) => Ok(create.path),
        Response::Error(code) => Err(error_from_code(code, path)),
        other => Err(unexpected_response(&other)),
    }
}

/// Decodes a GET response into payload and metadata.
///
/// # Errors
///
/// Maps error responses onto the typed [`ZkError`] for `path`.
pub fn expect_get_data(response: Response, path: &str) -> Result<(Vec<u8>, Stat), ZkError> {
    match response {
        Response::GetData(get) => Ok((get.data, get.stat)),
        Response::Error(code) => Err(error_from_code(code, path)),
        other => Err(unexpected_response(&other)),
    }
}

/// Decodes a SET response into the updated metadata.
///
/// # Errors
///
/// Maps error responses onto the typed [`ZkError`] for `path`.
pub fn expect_set_data(response: Response, path: &str) -> Result<Stat, ZkError> {
    match response {
        Response::SetData(set) => Ok(set.stat),
        Response::Error(code) => Err(error_from_code(code, path)),
        other => Err(unexpected_response(&other)),
    }
}

/// Decodes a DELETE acknowledgement.
///
/// # Errors
///
/// Maps error responses onto the typed [`ZkError`] for `path`.
pub fn expect_delete(response: Response, path: &str) -> Result<(), ZkError> {
    match response {
        Response::Delete => Ok(()),
        Response::Error(code) => Err(error_from_code(code, path)),
        other => Err(unexpected_response(&other)),
    }
}

/// Decodes an LS response into the child names.
///
/// # Errors
///
/// Maps error responses onto the typed [`ZkError`] for `path`.
pub fn expect_get_children(response: Response, path: &str) -> Result<Vec<String>, ZkError> {
    match response {
        Response::GetChildren(ls) => Ok(ls.children),
        Response::Error(code) => Err(error_from_code(code, path)),
        other => Err(unexpected_response(&other)),
    }
}

/// Decodes an EXISTS response; a missing node is `Ok(None)`, not an error.
///
/// # Errors
///
/// Maps other error responses onto the typed [`ZkError`] for `path`.
pub fn expect_exists(response: Response, path: &str) -> Result<Option<Stat>, ZkError> {
    match response {
        Response::Exists(exists) => Ok(Some(exists.stat)),
        Response::Error(ErrorCode::NoNode) => Ok(None),
        Response::Error(code) => Err(error_from_code(code, path)),
        other => Err(unexpected_response(&other)),
    }
}

/// Decodes a CHECK acknowledgement.
///
/// # Errors
///
/// Maps error responses onto the typed [`ZkError`] for `path`.
pub fn expect_check(response: Response, path: &str) -> Result<(), ZkError> {
    match response {
        Response::Check => Ok(()),
        Response::Error(code) => Err(error_from_code(code, path)),
        other => Err(unexpected_response(&other)),
    }
}

/// Decodes a PING acknowledgement.
///
/// # Errors
///
/// Maps error responses onto the typed [`ZkError`].
pub fn expect_ping(response: Response) -> Result<(), ZkError> {
    match response {
        Response::Ping => Ok(()),
        Response::Error(code) => Err(error_from_code(code, "/")),
        other => Err(unexpected_response(&other)),
    }
}

/// Decodes a `multi` response into the per-sub-operation results. Aborted
/// transactions are *not* an error at this level: the result vector reports
/// them in-band, one slot per requested operation.
///
/// # Errors
///
/// Maps transport-plane error responses (session expiry, quorum loss,
/// interceptor rejection) onto the typed [`ZkError`], and rejects responses
/// whose result count does not match `op_count`.
pub fn expect_multi(response: Response, op_count: usize) -> Result<Vec<OpResult>, ZkError> {
    match response {
        Response::Multi(multi) => {
            if multi.results.len() == op_count {
                Ok(multi.results)
            } else {
                Err(ZkError::Marshalling {
                    reason: format!(
                        "multi response carries {} results for {op_count} operations",
                        multi.results.len()
                    ),
                })
            }
        }
        Response::Error(code) => Err(error_from_code(code, "/")),
        other => Err(unexpected_response(&other)),
    }
}

/// A transport that can execute an atomic `multi` transaction. Implementing
/// this single method equips a client with the [`Txn`] builder via
/// [`MultiDispatch::txn`].
pub trait MultiDispatch {
    /// The client's error type for transport-plane failures.
    type Error: From<ZkError>;

    /// Executes `ops` atomically and returns one [`OpResult`] per operation,
    /// in order. An aborted transaction is reported in-band (error results in
    /// the vector), not as `Err`; `Err` means the request itself failed
    /// (connection loss, expired session, lost quorum, ...).
    ///
    /// # Errors
    ///
    /// Returns the transport-plane failure.
    fn multi(&mut self, ops: Vec<Op>) -> Result<Vec<OpResult>, Self::Error>;

    /// Starts a transaction builder on this client.
    fn txn(&mut self) -> Txn<'_, Self> {
        Txn { client: self, ops: Vec::new() }
    }
}

/// A fluent builder for atomic transactions, terminated by [`Txn::commit`].
///
/// Here against a loopback server:
///
/// ```
/// use std::sync::Arc;
/// use jute::records::CreateMode;
/// use zkserver::{OpResult, ZkReplica, ZkTcpClient, ZkTcpServer};
///
/// let server = ZkTcpServer::bind("127.0.0.1:0", Arc::new(ZkReplica::new(1)))?;
/// let mut client = ZkTcpClient::connect(server.local_addr())?;
/// client.create("/config", b"v0".to_vec(), CreateMode::Persistent)?;
///
/// // Guarded read-modify-write with an audit trail, applied at one zxid:
/// let results = client
///     .txn()
///     .check("/config", 0)
///     .set_data("/config", b"v1".to_vec(), 0)
///     .create("/config/history-", b"v0".to_vec(), CreateMode::PersistentSequential)
///     .commit()?;
/// assert!(matches!(&results[2], OpResult::Create { path } if path.starts_with("/config/history-")));
///
/// // A stale guard aborts the whole batch; nothing is applied and the
/// // failing sub-operation's typed error comes back:
/// let err = client.txn().check("/config", 0).delete("/config", -1).commit();
/// assert!(matches!(err, Err(zkserver::ZkError::BadVersion { .. })));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use = "a transaction does nothing until commit() is called"]
pub struct Txn<'c, C: MultiDispatch + ?Sized> {
    client: &'c mut C,
    ops: Vec<Op>,
}

impl<C: MultiDispatch + ?Sized> std::fmt::Debug for Txn<'_, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn").field("ops", &self.ops.len()).finish()
    }
}

impl<'c, C: MultiDispatch + ?Sized> Txn<'c, C> {
    /// Queues a CREATE (any [`CreateMode`], including sequential variants).
    pub fn create(mut self, path: &str, data: Vec<u8>, mode: CreateMode) -> Self {
        self.ops.push(Op::Create(CreateRequest { path: path.to_string(), data, mode }));
        self
    }

    /// Queues a version/existence CHECK guard (-1 checks existence only).
    pub fn check(mut self, path: &str, version: i32) -> Self {
        self.ops.push(Op::Check(CheckVersionRequest { path: path.to_string(), version }));
        self
    }

    /// Queues a SET (-1 skips the version guard).
    pub fn set_data(mut self, path: &str, data: Vec<u8>, version: i32) -> Self {
        self.ops.push(Op::SetData(SetDataRequest { path: path.to_string(), data, version }));
        self
    }

    /// Queues a DELETE (-1 skips the version guard).
    pub fn delete(mut self, path: &str, version: i32) -> Self {
        self.ops.push(Op::Delete(DeleteRequest { path: path.to_string(), version }));
        self
    }

    /// Queues a pre-built sub-operation.
    pub fn op(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// Number of queued sub-operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no sub-operation has been queued yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Executes the transaction atomically. On commit, returns one
    /// [`OpResult`] per queued operation. On abort, returns the typed error
    /// of the first failing sub-operation, carrying that operation's path —
    /// no sub-operation was applied. Use [`MultiDispatch::multi`] directly
    /// when the full per-operation result vector of an abort is needed.
    ///
    /// # Errors
    ///
    /// Transport-plane failures and transaction aborts, both as the client's
    /// error type.
    pub fn commit(self) -> Result<Vec<OpResult>, C::Error> {
        let paths: Vec<String> = self.ops.iter().map(|op| op.path().to_string()).collect();
        let results = self.client.multi(self.ops)?;
        match first_error_of(&results) {
            None => Ok(results),
            Some((index, code)) => {
                let path = paths.get(index).map_or("/", String::as_str);
                Err(C::Error::from(error_from_code(code, path)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jute::multi::MultiResponse;
    use jute::records::{CreateResponse, GetDataResponse, SetDataResponse};

    #[test]
    fn decoders_pass_success_through() {
        assert_eq!(
            expect_create(Response::Create(CreateResponse { path: "/a".into() }), "/a").unwrap(),
            "/a"
        );
        let (data, stat) = expect_get_data(
            Response::GetData(GetDataResponse { data: vec![1], stat: Stat::default() }),
            "/a",
        )
        .unwrap();
        assert_eq!(data, vec![1]);
        assert_eq!(stat, Stat::default());
        assert_eq!(
            expect_set_data(Response::SetData(SetDataResponse { stat: Stat::default() }), "/a")
                .unwrap(),
            Stat::default()
        );
        expect_delete(Response::Delete, "/a").unwrap();
        expect_ping(Response::Ping).unwrap();
        assert!(expect_exists(Response::Error(ErrorCode::NoNode), "/a").unwrap().is_none());
    }

    #[test]
    fn decoders_map_error_codes_onto_typed_errors() {
        assert!(matches!(
            expect_create(Response::Error(ErrorCode::NodeExists), "/a"),
            Err(ZkError::NodeExists { .. })
        ));
        assert!(matches!(
            expect_get_data(Response::Error(ErrorCode::NoNode), "/a"),
            Err(ZkError::NoNode { .. })
        ));
        assert!(matches!(
            expect_set_data(Response::Error(ErrorCode::BadVersion), "/a"),
            Err(ZkError::BadVersion { .. })
        ));
        assert!(matches!(
            expect_delete(Response::Error(ErrorCode::NotEmpty), "/a"),
            Err(ZkError::NotEmpty { .. })
        ));
        assert!(matches!(
            expect_get_children(Response::Delete, "/a"),
            Err(ZkError::Marshalling { .. })
        ));
    }

    #[test]
    fn expect_multi_validates_the_result_count() {
        let results = expect_multi(
            Response::Multi(MultiResponse::new(vec![OpResult::Check, OpResult::Delete])),
            2,
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        assert!(matches!(
            expect_multi(Response::Multi(MultiResponse::new(vec![OpResult::Check])), 2),
            Err(ZkError::Marshalling { .. })
        ));
        assert!(matches!(
            expect_multi(Response::Error(ErrorCode::NoQuorum), 1),
            Err(ZkError::NoQuorum)
        ));
    }

    /// A dispatcher that answers every multi with a canned result vector.
    struct Canned(Vec<OpResult>);
    impl MultiDispatch for Canned {
        type Error = ZkError;
        fn multi(&mut self, ops: Vec<Op>) -> Result<Vec<OpResult>, ZkError> {
            assert_eq!(ops.len(), self.0.len());
            Ok(self.0.clone())
        }
    }

    #[test]
    fn txn_builder_commits_and_reports_typed_aborts() {
        let mut ok = Canned(vec![OpResult::Check, OpResult::SetData { stat: Stat::default() }]);
        let results =
            ok.txn().check("/cfg", 3).set_data("/cfg", b"v".to_vec(), 3).commit().unwrap();
        assert_eq!(results.len(), 2);

        let mut aborted = Canned(MultiResponse::aborted(3, 1, ErrorCode::BadVersion).results);
        let err = aborted
            .txn()
            .create("/a", vec![], CreateMode::Persistent)
            .check("/cfg", 9)
            .delete("/a", -1)
            .commit()
            .unwrap_err();
        match err {
            ZkError::BadVersion { path, .. } => assert_eq!(path, "/cfg"),
            other => panic!("expected a typed BadVersion abort, got {other:?}"),
        }
    }

    #[test]
    fn txn_builder_tracks_queued_ops() {
        let mut client = Canned(vec![]);
        {
            let txn = client.txn();
            assert!(txn.is_empty());
            let txn = txn.op(Op::Check(CheckVersionRequest { path: "/x".into(), version: -1 }));
            assert_eq!(txn.len(), 1);
            assert!(format!("{txn:?}").contains("Txn"));
        }
        // An empty commit is legal and commits nothing.
        assert!(client.txn().commit().unwrap().is_empty());
    }
}
