//! The broker service: a JSONL socket server in front of a shared
//! [`Broker`].
//!
//! One thread per connection reads and parses request lines and posts
//! them on its shard's queue (connection `c` → shard `c mod S`). There
//! is no dispatcher thread: each shard has a dispatch *token*, and
//! whichever connection thread holds it serves the queue — flat
//! combining. A poster that finds the token free takes it, drains the
//! queue in batches ("ticks"), opens a fresh contention epoch per
//! batch, and serves every request in arrival order before writing the
//! response lines back. A poster that finds the token held leaves its
//! frame to the holder, which releases the token only under the queue
//! lock and with the queue empty, so no frame is stranded. Batching keeps the epoch semantics
//! of the [`crate::TrafficBoard`] meaningful — requests landing in the
//! same tick contend with each other — and gives natural backpressure:
//! a slow broker grows the batch instead of the thread count. With
//! `S > 1` ticks are plane-folded (`S` ticks make one epoch), exactly
//! as with one dispatcher thread per shard.
//!
//! Robustness rules (specified in `docs/PROTOCOL.md`, operational
//! guidance in `docs/OPERATIONS.md`):
//!
//! * Frames are capped at [`MAX_FRAME`] bytes. An oversized frame gets
//!   a typed `wire` error and the rest of the line is discarded; the
//!   connection stays usable.
//! * Every frame — request or response, JSON plus newline — goes out
//!   in one write, so the peer wakes once per frame.
//! * A connection that drops — cleanly or mid-frame — has every lease
//!   it acquired revoked and reclaimed on the next tick.
//! * Telemetry is wait-free at emission: broker events land in
//!   per-thread rings; the serve binary's background collector drains
//!   them to the trace file,
//!   so the buffered tail of a `--trace` file survives even a panic
//!   unwinding a serving thread.
//! * [`Server::shutdown`] ends all serving: once it returns, no thread
//!   of the server touches the broker again.
//! * [`Client`] offers capped exponential backoff retries
//!   ([`RetryPolicy`]) for transient errors and per-request deadlines
//!   ([`Client::set_deadline`]).
//!
//! Addresses: `unix:/path/to.sock`, `tcp:host:port`, or a bare
//! `host:port` (TCP). Tests bind `tcp:127.0.0.1:0` and read the
//! chosen port back from [`Server::local_addr`].

use crate::broker::Broker;
use crate::shard::{serve_batch, shard_of, Admission, Queues, ShardConfig};
use crate::wire::{Request, Response};
use crate::{Lease, LeaseId, ServiceError, TenantId, TenantSpec};
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::AttrId;
use hetmem_telemetry::{Event, RetryExhausted, SpillForwarded, TelemetrySink};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on one request or response line, newline included. A peer
/// that sends a longer frame gets a typed `wire` error and the rest of
/// the oversized line is discarded.
pub const MAX_FRAME: usize = 64 * 1024;

/// A connected client stream (either family).
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Writes one frame — `json` plus its newline — with a single
/// `write_all`, so a peer blocked in `read_line` wakes once per frame
/// instead of once for the payload and again for the newline.
fn write_frame(out: &mut impl Write, json: String) -> std::io::Result<()> {
    let mut line = json;
    line.push('\n');
    out.write_all(line.as_bytes())
}

enum Bound {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// One unit of serving work.
enum Work {
    /// A (possibly malformed) request frame from `conn_id`.
    Request { conn_id: u64, request: Result<Request, ServiceError>, reply_to: Arc<Mutex<Conn>> },
    /// `conn_id` hung up; its leases must be revoked.
    Disconnect { conn_id: u64 },
}

/// A dispatch token, unless another thread holds it. A token left
/// poisoned by a panicking holder is taken over: the panic belonged to
/// one request, not to the shard.
fn try_token(token: &Mutex<()>) -> Option<MutexGuard<'_, ()>> {
    match token.try_lock() {
        Ok(token) => Some(token),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Reads and discards bytes until a newline. Returns `false` when the
/// stream ends first (the peer is gone).
fn discard_to_newline<R: BufRead>(reader: &mut R) -> bool {
    let mut chunk = Vec::new();
    loop {
        chunk.clear();
        match reader.by_ref().take(MAX_FRAME as u64).read_until(b'\n', &mut chunk) {
            Ok(0) | Err(_) => return false,
            Ok(_) if chunk.last() == Some(&b'\n') => return true,
            Ok(_) => continue,
        }
    }
}

/// Live connections: a handle to shut each socket down with, and the
/// thread serving it.
type Conns = Vec<(Conn, JoinHandle<()>)>;

/// The running service.
pub struct Server {
    plane: Arc<Plane>,
    /// Returns the live connections once stopped.
    accept_thread: Option<JoinHandle<Conns>>,
    local_addr: String,
    sock_path: Option<PathBuf>,
    config: ShardConfig,
}

/// A serving-side observer of accepted requests: called with the
/// current service epoch and each well-formed request, in exactly the
/// order they are served. `hetmem-serve --record` wires this to a
/// wire-log writer so the run can be replayed later.
pub type RequestRecorder = Box<dyn FnMut(u64, &Request) + Send>;

impl Server {
    /// Binds `addr` and starts the accept thread.
    pub fn bind(broker: Arc<Broker>, addr: &str) -> Result<Server, ServiceError> {
        Server::bind_with(broker, addr, None)
    }

    /// [`Server::bind`] with an optional [`RequestRecorder`] invoked
    /// by the serving thread for every accepted (parsed) request
    /// frame, stamped with the epoch it executes in. Malformed frames
    /// are answered but never recorded — they have no effect on broker
    /// state, so a replay that skips them converges to the same state.
    pub fn bind_with(
        broker: Arc<Broker>,
        addr: &str,
        recorder: Option<RequestRecorder>,
    ) -> Result<Server, ServiceError> {
        Server::bind_sharded(broker, addr, recorder, ShardConfig::default())
    }

    /// [`Server::bind_with`] over a sharded dispatch plane, running the
    /// rules of [`crate::shard`]: one queue and dispatch token per
    /// shard, connection `c` routed to shard [`shard_of`]`(c, S)`, a
    /// poster whose own shard is busy stealing onto an idle sibling
    /// (`shard_steal` telemetry), and — when [`ShardConfig::coalesce`]
    /// is set — consecutive mergeable same-tenant `alloc` frames in a
    /// tick batched through one [`Broker::acquire_batch`] planning walk
    /// (`batch_coalesced` telemetry). Every tick feeds the broker's
    /// steal-rate meter ([`Broker::steal_rate`]).
    ///
    /// Recording composes only with the single-dispatcher plane: a
    /// wire log replays serially, and neither a cross-shard thread
    /// interleaving nor a coalesced walk is reconstructible from it.
    /// Passing a recorder with `shards > 1` or coalescing on is
    /// refused with a `wire` error.
    pub fn bind_sharded(
        broker: Arc<Broker>,
        addr: &str,
        recorder: Option<RequestRecorder>,
        config: ShardConfig,
    ) -> Result<Server, ServiceError> {
        if recorder.is_some() && (config.effective_shards() > 1 || config.coalesce) {
            return Err(ServiceError::Wire(
                "recording requires the single-dispatcher plane \
                 (shards=1, coalescing off)"
                    .into(),
            ));
        }
        let io = |e: std::io::Error| ServiceError::Io(e.to_string());
        let bound = if let Some(path) = addr.strip_prefix("unix:") {
            let path = PathBuf::from(path);
            // A previous run's socket file would make bind fail.
            let _ = std::fs::remove_file(&path);
            Bound::Unix(UnixListener::bind(&path).map_err(io)?, path)
        } else {
            let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
            Bound::Tcp(TcpListener::bind(hostport).map_err(io)?)
        };
        let (local_addr, sock_path) = match &bound {
            Bound::Tcp(l) => (format!("tcp:{}", l.local_addr().map_err(io)?), None),
            Bound::Unix(_, path) => (format!("unix:{}", path.display()), Some(path.clone())),
        };

        let plane = Arc::new(Plane::new(broker, config, recorder));
        let accept_thread = {
            let plane = plane.clone();
            std::thread::spawn(move || {
                let mut conns = Conns::new();
                let mut next_conn_id = 0u64;
                loop {
                    let conn = match &bound {
                        Bound::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                        Bound::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
                    };
                    if plane.stopped() {
                        return conns;
                    }
                    let Ok(conn) = conn else {
                        continue;
                    };
                    let (Ok(write_half), Ok(shutdown_half)) = (conn.try_clone(), conn.try_clone())
                    else {
                        continue;
                    };
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    let reply_to = Arc::new(Mutex::new(write_half));
                    let plane = plane.clone();
                    let thread =
                        std::thread::spawn(move || plane.serve_conn(conn_id, conn, reply_to));
                    // Ended connections are forgotten: their threads
                    // are done and their sockets can close.
                    conns.retain(|(_, thread)| !thread.is_finished());
                    conns.push((shutdown_half, thread));
                }
            })
        };

        Ok(Server { plane, accept_thread: Some(accept_thread), local_addr, sock_path, config })
    }

    /// The bound address in connectable form (`tcp:127.0.0.1:PORT` or
    /// `unix:/path`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// The broker behind the socket.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.plane.broker
    }

    /// The dispatch-plane shape this server runs.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.config
    }

    /// Stops accepting, serves nothing further, and joins the accept
    /// and connection threads: once this returns, the server no longer
    /// touches the broker. Leases held by still-connected clients stay
    /// granted. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.plane.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept thread with a throwaway connection; once
        // it is joined, no connection is added.
        let _ = Client::connect(&self.local_addr);
        let conns = self.accept_thread.take().and_then(|t| t.join().ok()).unwrap_or_default();
        // Unblock the connection threads' reads and writes. A thread
        // still serving a tick finishes it, then sees `stop`.
        for (conn, _) in &conns {
            conn.shutdown();
        }
        for (_, t) in conns {
            let _ = t.join();
        }
        if let Some(path) = self.sock_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatch plane every connection thread shares: the shard queues
/// and tokens, and the per-connection lease ledger a token holder
/// updates as it serves.
struct Plane {
    broker: Arc<Broker>,
    queues: Queues<Work>,
    /// One dispatch token per shard: its holder serves the shard's queue.
    tokens: Vec<Mutex<()>>,
    coalesce: bool,
    stop: AtomicBool,
    /// Leases granted per connection, so a dropped peer's capacity can
    /// be revoked and reclaimed. Shared by every shard: stealing can
    /// carry a connection's requests to a sibling shard, and any token
    /// holder must be able to revoke.
    conn_leases: Mutex<HashMap<u64, Vec<LeaseId>>>,
    /// Connections already disconnected: a stolen request that grants
    /// after its peer's Disconnect was served elsewhere is revoked on
    /// the spot instead of leaking until its TTL.
    dead_conns: Mutex<HashSet<u64>>,
    recorder: Mutex<Option<RequestRecorder>>,
}

impl Plane {
    fn new(broker: Arc<Broker>, config: ShardConfig, recorder: Option<RequestRecorder>) -> Plane {
        let shards = config.effective_shards();
        // S shards tick the broker S times per service round; fold
        // those ticks into one epoch so contention windows and TTL
        // aging stay round-wide.
        broker.set_dispatch_planes(shards);
        Plane {
            broker,
            queues: Queues::new(shards as usize),
            tokens: (0..shards).map(|_| Mutex::new(())).collect(),
            coalesce: config.coalesce,
            stop: AtomicBool::new(false),
            conn_leases: Mutex::new(HashMap::new()),
            dead_conns: Mutex::new(HashSet::new()),
            recorder: Mutex::new(recorder),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// A connection thread: reads frames until the peer hangs up,
    /// posting each one — and serving whatever the shard's token lets
    /// it serve.
    fn serve_conn(&self, conn_id: u64, conn: Conn, reply_to: Arc<Mutex<Conn>>) {
        // A connection's frames always land on one shard, so
        // per-connection request order is preserved (modulo stealing,
        // which only moves queue tails).
        let home = shard_of(conn_id, self.tokens.len());
        let mut reader = BufReader::new(conn);
        loop {
            if self.stopped() {
                return;
            }
            let mut buf = Vec::new();
            let n = reader
                .by_ref()
                .take(MAX_FRAME as u64 + 1)
                .read_until(b'\n', &mut buf)
                .unwrap_or_default();
            if n == 0 {
                self.post(home, Work::Disconnect { conn_id });
                return;
            }
            let complete = buf.last() == Some(&b'\n');
            if !complete && buf.len() > MAX_FRAME {
                let request = Err(ServiceError::Wire(format!("frame exceeds {MAX_FRAME} bytes")));
                self.post(home, Work::Request { conn_id, request, reply_to: reply_to.clone() });
                if !discard_to_newline(&mut reader) {
                    self.post(home, Work::Disconnect { conn_id });
                    return;
                }
                continue;
            }
            if !complete {
                // EOF mid-frame: the peer died while writing. Nothing
                // to answer.
                self.post(home, Work::Disconnect { conn_id });
                return;
            }
            let request = match String::from_utf8(buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => Request::from_json(line.trim_end()),
                Err(_) => Err(ServiceError::Wire("frame is not valid UTF-8".into())),
            };
            self.post(home, Work::Request { conn_id, request, reply_to: reply_to.clone() });
        }
    }

    /// Queues `work` on shard `home`, then combines: serves the shard
    /// if its token is free, and otherwise leaves the frame to the
    /// token holder — stealing onto an idle sibling when `home` is
    /// backed up. Nothing is posted or served after shutdown.
    fn post(&self, home: usize, work: Work) {
        if self.stopped() {
            return;
        }
        self.queues.lock(home).push_back(work);
        match try_token(&self.tokens[home]) {
            Some(token) => self.serve_held(home, token),
            None if self.tokens.len() > 1 => self.steal_for(home),
            None => {}
        }
    }

    /// With `shard`'s token held: drains the shard's queue until it is
    /// empty, one drained batch per service tick.
    ///
    /// The token is released under the queue lock, once the queue is
    /// seen empty. A poster pushes under that lock and tries the token
    /// after, so either its frame was in a drained batch or it finds
    /// the token free — or held by a later holder, which drains after
    /// the push. No frame is left queued without a holder to serve it.
    fn serve_held(&self, shard: usize, token: MutexGuard<'_, ()>) {
        loop {
            let batch = {
                let mut pending = self.queues.lock(shard);
                if pending.is_empty() || self.stopped() {
                    drop(token);
                    return;
                }
                std::mem::take(&mut *pending)
            };
            self.serve_tick(shard, batch, false);
        }
    }

    /// The poster's own shard is busy and at least two frames wait
    /// behind its holder: take the first idle sibling's token and, as
    /// that shard, serve what the steal rule takes, then the sibling's
    /// own queue.
    fn steal_for(&self, home: usize) {
        if self.queues.lock(home).len() < 2 {
            return;
        }
        for thief in (0..self.tokens.len()).filter(|&s| s != home) {
            if let Some(token) = try_token(&self.tokens[thief]) {
                let stolen = self.queues.steal(&self.broker, thief);
                if !stolen.is_empty() {
                    self.serve_tick(thief, stolen, true);
                }
                self.serve_held(thief, token);
                return;
            }
        }
    }

    /// One service tick: a fresh contention epoch, then the plane's
    /// batch step over `batch`.
    fn serve_tick(&self, shard: usize, batch: VecDeque<Work>, stolen: bool) {
        self.broker.advance_epoch();
        serve_batch(
            &self.broker,
            shard,
            batch,
            stolen,
            self.coalesce,
            |work| self.admission(work),
            |work, outcome| self.serve_one(work, outcome),
        );
    }

    /// The admission a well-formed `alloc` frame of a registered tenant
    /// asks for; every other frame is served on its own.
    fn admission(&self, work: &Work) -> Option<Admission> {
        let Work::Request {
            request: Ok(Request::Alloc { tenant, size, criterion, fallback, label, ttl }),
            ..
        } = work
        else {
            return None;
        };
        Some(Admission {
            tenant: self.broker.tenant_id(tenant)?,
            ttl: *ttl,
            req: alloc_request(*size, *criterion, *fallback, label.clone()),
        })
    }

    /// Serves one work item and replies to its connection. `outcome`
    /// is the grant the batch step already admitted for an `alloc`
    /// frame; without one, the item takes the serial path — the
    /// single-dispatcher semantics, verbatim.
    fn serve_one(&self, item: Work, outcome: Option<Result<Lease, ServiceError>>) {
        match item {
            Work::Disconnect { conn_id } => {
                // Mark dead *before* revoking, so a racing grant on a
                // sibling shard either sees the mark (and revokes
                // itself) or lands in conn_leases in time to be
                // revoked here.
                self.dead_conns.lock().expect("dead conns poisoned").insert(conn_id);
                let held = self
                    .conn_leases
                    .lock()
                    .expect("conn leases poisoned")
                    .remove(&conn_id)
                    .unwrap_or_default();
                for lease in held {
                    // Already freed or expired ids come back
                    // UnknownLease; that's fine.
                    let _ = self.broker.revoke(lease, "disconnect");
                }
            }
            Work::Request { conn_id, request, reply_to } => {
                let freeing = match &request {
                    Ok(Request::Free { lease, .. }) => Some(LeaseId(*lease)),
                    _ => None,
                };
                let response = match (request, outcome) {
                    (_, Some(outcome)) => {
                        outcome.map_or_else(|e| Response::from_error(&e), |l| granted(&l))
                    }
                    (Ok(request), None) => {
                        if let Some(rec) = self.recorder.lock().expect("recorder poisoned").as_mut()
                        {
                            rec(self.broker.epoch(), &request);
                        }
                        serve_with_shards(&self.broker, request, self.tokens.len() as u32)
                    }
                    (Err(e), None) => Response::from_error(&e),
                };
                self.track_lease(conn_id, &response, freeing);
                reply(&reply_to, &response);
            }
        }
    }

    /// Updates the per-connection lease ledger for one response. A
    /// grant to an already-disconnected peer is revoked on the spot
    /// (lock order: `conn_leases` then `dead_conns` — the only place
    /// both are held).
    fn track_lease(&self, conn_id: u64, resp: &Response, freeing: Option<LeaseId>) {
        match resp {
            Response::Granted { lease, .. } => {
                let id = LeaseId(*lease);
                let mut leases = self.conn_leases.lock().expect("conn leases poisoned");
                if self.dead_conns.lock().expect("dead conns poisoned").contains(&conn_id) {
                    let _ = self.broker.revoke(id, "disconnect");
                } else {
                    leases.entry(conn_id).or_default().push(id);
                }
            }
            Response::Freed => {
                if let Some(id) = freeing {
                    if let Some(held) =
                        self.conn_leases.lock().expect("conn leases poisoned").get_mut(&conn_id)
                    {
                        held.retain(|l| *l != id);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Writes one response frame to a connection. A peer that has gone
/// away is ignored here; its connection thread posts the disconnect.
fn reply(reply_to: &Mutex<Conn>, response: &Response) {
    let mut out = reply_to.lock().expect("conn poisoned");
    let _ = write_frame(&mut *out, response.to_json());
}

/// The broker request an `alloc` or `forward` frame asks for.
fn alloc_request(
    size: u64,
    criterion: AttrId,
    fallback: Fallback,
    label: Option<String>,
) -> AllocRequest {
    let req = AllocRequest::new(size).criterion(criterion).fallback(fallback);
    match label {
        Some(label) => req.label(label),
        None => req,
    }
}

/// The broker id of a wire tenant name.
fn tenant_id(broker: &Broker, tenant: &str) -> Result<TenantId, ServiceError> {
    broker.tenant_id(tenant).ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))
}

/// The `granted` frame for a lease. The broker keeps the lease record;
/// the wire client holds only the id and frees through it.
fn granted(lease: &Lease) -> Response {
    Response::Granted {
        lease: lease.id().0,
        size: lease.size(),
        placement: lease.placement().to_vec(),
        fast_bytes: lease.fast_bytes(),
    }
}

/// Serves one already-parsed request against the broker.
pub fn serve(broker: &Broker, request: Request) -> Response {
    serve_with_shards(broker, request, 1)
}

/// [`serve`] for a broker fronted by `shards` dispatch shards — the
/// count is reported in `stats` responses.
pub fn serve_with_shards(broker: &Broker, request: Request, shards: u32) -> Response {
    let outcome = (|| match request {
        Request::Register { tenant, priority, quota, reserve } => {
            let mut spec = TenantSpec::new(tenant).priority(priority);
            for (kind, bytes) in quota {
                spec = spec.quota(kind, bytes);
            }
            for (kind, bytes) in reserve {
                spec = spec.reserve(kind, bytes);
            }
            let id = broker.register(spec)?;
            Ok(Response::Registered { tenant_id: id.0 })
        }
        Request::Alloc { tenant, size, criterion, fallback, label, ttl } => {
            let id = tenant_id(broker, &tenant)?;
            let req = alloc_request(size, criterion, fallback, label);
            let lease = broker.acquire_with_ttl(id, &req, ttl)?;
            Ok(granted(&lease))
        }
        Request::Renew { tenant, lease } => {
            let id = tenant_id(broker, &tenant)?;
            let expires_at = broker.renew(id, LeaseId(lease))?;
            Ok(Response::Renewed { lease, expires_at })
        }
        Request::Heartbeat { tenant } => {
            let id = tenant_id(broker, &tenant)?;
            let renewed = broker.heartbeat(id)?;
            Ok(Response::HeartbeatAck { renewed })
        }
        Request::Free { tenant, lease } => {
            let id = tenant_id(broker, &tenant)?;
            let holder =
                broker.lease_owner(LeaseId(lease)).ok_or(ServiceError::UnknownLease(lease))?;
            if holder != id {
                return Err(ServiceError::UnknownLease(lease));
            }
            broker.release_by_id(LeaseId(lease))?;
            Ok(Response::Freed)
        }
        Request::Stats => Ok(Response::Stats {
            tenants: broker.tenants(),
            nodes: broker.node_usage(),
            shards,
            guided: broker.guided_overhead(),
        }),
        Request::Forward { origin, tenant, size, criterion, fallback, label, ttl } => {
            let id = tenant_id(broker, &tenant)?;
            let req = alloc_request(size, criterion, fallback, label);
            let lease = broker.acquire_with_ttl(id, &req, ttl).map_err(|e| match e {
                // The forwarder ranked this broker on a digest that
                // promised room; a shortfall here means that digest no
                // longer reflects reality.
                ServiceError::Admission { .. } => ServiceError::StaleDigest { peer: broker.id() },
                e => e,
            })?;
            // Emitted here — not in the federation — so a per-broker
            // wire-log replay of the forward frame regenerates it and
            // the trailer summaries stay byte-identical.
            let sink = broker.sink_handle();
            if sink.enabled() {
                sink.emit(Event::SpillForwarded(SpillForwarded {
                    broker: broker.id(),
                    origin,
                    tenant,
                    size,
                    fast_bytes: lease.fast_bytes(),
                    cost_ns: spill_cost_ns(size),
                }));
            }
            Ok(granted(&lease))
        }
        Request::Digest => Ok(Response::Digest {
            broker: broker.id(),
            epoch: broker.epoch(),
            tiers: broker.capacity_digest(),
        }),
    })();
    outcome.unwrap_or_else(|e: ServiceError| Response::from_error(&e))
}

/// Deterministic cost model for one cross-broker spill forward: a
/// fixed interconnect round trip plus a bytes-proportional transfer
/// term (~12.5 GB/s). Purely synthetic — the simulator has no real
/// network — but stable across runs, so spill-latency benchmarks are
/// bit-identical.
pub fn spill_cost_ns(bytes: u64) -> f64 {
    const FORWARD_RTT_NS: f64 = 2_500.0;
    const NS_PER_BYTE: f64 = 0.08;
    FORWARD_RTT_NS + bytes as f64 * NS_PER_BYTE
}

/// Capped exponential backoff schedule for [`Client::call_with_retry`].
///
/// The schedule is a pure function of the attempt number, so tests can
/// assert on it without sleeping:
///
/// ```
/// use hetmem_service::server::RetryPolicy;
/// let p = RetryPolicy { max_attempts: 5, base_delay_ms: 10, max_delay_ms: 50 };
/// let delays: Vec<u64> = (1..5).map(|a| p.delay_ms(a)).collect();
/// assert_eq!(delays, vec![10, 20, 40, 50]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so 1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry, milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay, milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, base_delay_ms: 5, max_delay_ms: 100 }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (1-based): the base
    /// delay doubled per prior retry, capped at `max_delay_ms`.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(62);
        self.base_delay_ms.saturating_mul(1u64 << shift).min(self.max_delay_ms)
    }
}

/// A blocking JSONL client for the service socket, with optional
/// per-request deadlines and transient-error retries.
pub struct Client {
    addr: String,
    reader: BufReader<Conn>,
    writer: Conn,
    deadline: Option<Duration>,
    retry: RetryPolicy,
    sink: TelemetrySink,
}

impl Client {
    /// Connects to an address in [`Server::local_addr`] form.
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        let (reader, writer) = Client::open(addr)?;
        Ok(Client {
            addr: addr.to_string(),
            reader,
            writer,
            deadline: None,
            retry: RetryPolicy::default(),
            sink: TelemetrySink::disabled(),
        })
    }

    fn open(addr: &str) -> Result<(BufReader<Conn>, Conn), ServiceError> {
        let io = |e: std::io::Error| ServiceError::Io(e.to_string());
        let conn = if let Some(path) = addr.strip_prefix("unix:") {
            Conn::Unix(UnixStream::connect(path).map_err(io)?)
        } else {
            let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
            Conn::Tcp(TcpStream::connect(hostport).map_err(io)?)
        };
        let writer = conn.try_clone().map_err(io)?;
        Ok((BufReader::new(conn), writer))
    }

    /// Sets (or clears) the per-request response deadline. A call that
    /// waits longer than this returns
    /// [`ServiceError::DeadlineExceeded`]; the retry loop then
    /// reconnects, because a late response would desynchronise the
    /// stream.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), ServiceError> {
        self.reader
            .get_ref()
            .set_read_timeout(deadline)
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        self.deadline = deadline;
        Ok(())
    }

    /// Replaces the retry schedule used by [`Client::call_with_retry`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Attaches a telemetry sink; exhausted retries emit
    /// [`RetryExhausted`] events through it.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// Drops the current stream and dials the stored address again,
    /// reapplying the deadline.
    pub fn reconnect(&mut self) -> Result<(), ServiceError> {
        let (reader, writer) = Client::open(&self.addr)?;
        self.reader = reader;
        self.writer = writer;
        if let Some(deadline) = self.deadline {
            self.reader
                .get_ref()
                .set_read_timeout(Some(deadline))
                .map_err(|e| ServiceError::Io(e.to_string()))?;
        }
        Ok(())
    }

    /// Sends one request and blocks for its response (no retries).
    pub fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let io = |e: std::io::Error| ServiceError::Io(e.to_string());
        write_frame(&mut self.writer, request.to_json()).map_err(io)?;
        let mut line = String::new();
        let n = match self.reader.read_line(&mut line) {
            Ok(n) => n,
            Err(e)
                if self.deadline.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(ServiceError::DeadlineExceeded(format!("op {:?}", request.op())));
            }
            Err(e) => return Err(io(e)),
        };
        if n == 0 {
            return Err(ServiceError::Io("server closed the connection".into()));
        }
        Response::from_json(line.trim_end())
    }

    /// Like [`Client::call`], but retries transient failures
    /// ([`ServiceError::is_transient`] — stalls, socket errors, missed
    /// deadlines) with the capped exponential backoff of the configured
    /// [`RetryPolicy`]. Socket and deadline failures reconnect before
    /// retrying. When the budget runs out, the last error is returned
    /// and a `retry_exhausted` event is emitted if a recorder is
    /// attached.
    pub fn call_with_retry(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let mut attempt: u32 = 1;
        loop {
            let err = match self.call(request) {
                // A stalled broker reports success=0 over the wire; it
                // is the one server-side error worth retrying.
                Ok(Response::Error { code, .. }) if code == "stalled" => ServiceError::Stalled,
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if !err.is_transient() || attempt >= self.retry.max_attempts {
                if err.is_transient() && self.sink.enabled() {
                    self.sink.emit(Event::RetryExhausted(RetryExhausted {
                        tenant: request.tenant().unwrap_or("").to_string(),
                        op: request.op().to_string(),
                        attempts: attempt as u64,
                        last_error: err.to_string(),
                    }));
                }
                return Err(err);
            }
            let delay = self.retry.delay_ms(attempt);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            if matches!(err, ServiceError::Io(_) | ServiceError::DeadlineExceeded(_)) {
                // A failed reconnect surfaces as Io on the next call.
                let _ = self.reconnect();
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArbitrationPolicy;
    use hetmem_core::discovery;
    use hetmem_memsim::Machine;

    fn serve_knl() -> Server {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::FairShare));
        Server::bind(broker, "tcp:127.0.0.1:0").expect("bind")
    }

    fn register(client: &mut Client, name: &str) {
        let resp = client
            .call(&Request::Register {
                tenant: name.into(),
                priority: crate::Priority::Normal,
                quota: vec![],
                reserve: vec![],
            })
            .expect("register");
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }

    #[test]
    fn register_alloc_free_over_the_socket() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        let resp = client
            .call(&Request::Alloc {
                tenant: "t".into(),
                size: 1 << 20,
                criterion: hetmem_core::attr::BANDWIDTH,
                fallback: hetmem_alloc::Fallback::PartialSpill,
                label: Some("buf".into()),
                ttl: None,
            })
            .expect("alloc");
        let Response::Granted { lease, size, fast_bytes, .. } = resp else {
            panic!("expected grant, got {resp:?}");
        };
        assert_eq!(size, 1 << 20);
        assert_eq!(fast_bytes, 1 << 20, "KNL MCDRAM should win the bandwidth ranking");
        assert_eq!(server.broker().live_leases(), 1);
        let resp = client.call(&Request::Free { tenant: "t".into(), lease }).expect("free");
        assert!(matches!(resp, Response::Freed), "{resp:?}");
        assert_eq!(server.broker().live_leases(), 0);
        server.broker().check_invariants().expect("clean");
        server.shutdown();
    }

    #[test]
    fn errors_keep_the_connection_usable() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // Alloc for an unregistered tenant fails but does not hang up.
        let resp = client
            .call(&Request::Alloc {
                tenant: "ghost".into(),
                size: 4096,
                criterion: hetmem_core::attr::CAPACITY,
                fallback: hetmem_alloc::Fallback::NextTarget,
                label: None,
                ttl: None,
            })
            .expect("call");
        let Response::Error { code, .. } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, "unknown_tenant");
        // Freeing someone else's lease is refused.
        register(&mut client, "t");
        let resp = client.call(&Request::Free { tenant: "t".into(), lease: 99 }).expect("call");
        let Response::Error { code, .. } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, "unknown_lease");
        let resp = client.call(&Request::Stats).expect("stats");
        let Response::Stats { tenants, nodes, shards, guided } = resp else {
            panic!("expected stats");
        };
        assert_eq!(tenants.len(), 1);
        assert_eq!(nodes.len(), 8, "KNL SNC-4 flat has 8 NUMA nodes");
        assert_eq!(shards, 1, "default plane has one shard");
        assert_eq!(guided, None, "guidance is off unless enabled");
        server.shutdown();
    }

    #[test]
    fn renew_and_heartbeat_over_the_socket() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        let resp = client
            .call(&Request::Alloc {
                tenant: "t".into(),
                size: 4096,
                criterion: hetmem_core::attr::CAPACITY,
                fallback: hetmem_alloc::Fallback::PartialSpill,
                label: None,
                ttl: Some(1000),
            })
            .expect("alloc");
        let Response::Granted { lease, .. } = resp else {
            panic!("expected grant, got {resp:?}");
        };
        let resp = client.call(&Request::Renew { tenant: "t".into(), lease }).expect("renew");
        let Response::Renewed { lease: renewed, expires_at } = resp else {
            panic!("expected renewed, got {resp:?}");
        };
        assert_eq!(renewed, lease);
        assert!(expires_at.is_some(), "a TTL'd lease has a deadline");
        let resp = client.call(&Request::Heartbeat { tenant: "t".into() }).expect("heartbeat");
        assert_eq!(resp, Response::HeartbeatAck { renewed: 1 });
        // Renewing a lease we do not own is refused.
        let resp = client.call(&Request::Renew { tenant: "t".into(), lease: 99 }).expect("call");
        let Response::Error { code, .. } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, "unknown_lease");
        server.shutdown();
    }

    #[test]
    fn disconnect_revokes_the_connections_leases() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        let resp = client
            .call(&Request::Alloc {
                tenant: "t".into(),
                size: 1 << 20,
                criterion: hetmem_core::attr::BANDWIDTH,
                fallback: hetmem_alloc::Fallback::PartialSpill,
                label: None,
                ttl: None,
            })
            .expect("alloc");
        assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
        assert_eq!(server.broker().live_leases(), 1);
        drop(client);
        // The connection thread posts the disconnect and serves it
        // on its shard's next tick. Wait for the revocation counter:
        // it moves last, after the lease leaves the table and the
        // ledgers settle.
        for _ in 0..200 {
            if server.broker().robustness().revoked == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.broker().live_leases(), 0, "disconnect reclaims the lease");
        assert_eq!(server.broker().robustness().revoked, 1);
        server.broker().check_invariants().expect("clean");
        server.shutdown();
    }

    #[test]
    fn shutdown_ends_all_serving() {
        let mut server = serve_knl();
        let broker = server.broker().clone();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        for _ in 0..3 {
            let resp = client
                .call(&Request::Alloc {
                    tenant: "t".into(),
                    size: 1 << 20,
                    criterion: hetmem_core::attr::BANDWIDTH,
                    fallback: hetmem_alloc::Fallback::PartialSpill,
                    label: None,
                    ttl: None,
                })
                .expect("alloc");
            assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
        }
        let epoch = broker.epoch();
        server.shutdown();
        // The connection thread saw its socket close during shutdown;
        // it must not post (or serve) a disconnect afterwards.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(broker.live_leases(), 3, "no revocation after shutdown");
        assert_eq!(broker.robustness().revoked, 0);
        assert_eq!(broker.epoch(), epoch, "no tick after shutdown");
        broker.check_invariants().expect("clean");
        drop(client);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(broker.live_leases(), 3, "a hang-up after shutdown is not served either");
    }

    #[test]
    fn pipelined_frames_are_answered_in_order() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        // 32 frames written before any response is read: allocs whose
        // sizes number them, so the responses show their order.
        let frames: String = (1..=32u64)
            .map(|i| {
                let alloc = Request::Alloc {
                    tenant: "t".into(),
                    size: i << 20,
                    criterion: hetmem_core::attr::CAPACITY,
                    fallback: hetmem_alloc::Fallback::PartialSpill,
                    label: None,
                    ttl: None,
                };
                alloc.to_json() + "\n"
            })
            .collect();
        client.writer.write_all(frames.as_bytes()).expect("write");
        for i in 1..=32u64 {
            let mut line = String::new();
            client.reader.read_line(&mut line).expect("read");
            let resp = Response::from_json(line.trim_end()).expect("parse");
            let Response::Granted { size, .. } = resp else {
                panic!("frame {i}: expected grant, got {resp:?}");
            };
            assert_eq!(size, i << 20, "response {i} answers frame {i}");
        }
        assert_eq!(server.broker().live_leases(), 32);
        server.shutdown();
    }

    #[test]
    fn oversized_frames_get_a_typed_error_and_the_conn_survives() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // Hand-write a frame one byte over the cap.
        let huge = format!("{{\"op\":\"stats\",\"pad\":\"{}\"}}\n", "x".repeat(MAX_FRAME));
        client.writer.write_all(huge.as_bytes()).expect("write");
        let mut line = String::new();
        client.reader.read_line(&mut line).expect("read");
        let resp = Response::from_json(line.trim_end()).expect("parse");
        let Response::Error { code, error } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, "wire");
        assert!(error.contains("exceeds"), "{error}");
        // The same connection still serves well-formed requests.
        let resp = client.call(&Request::Stats).expect("stats");
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        server.shutdown();
    }

    #[test]
    fn retry_policy_caps_and_call_with_retry_rides_out_a_stall() {
        let p = RetryPolicy { max_attempts: 10, base_delay_ms: 1, max_delay_ms: 8 };
        assert_eq!(
            (1..8).map(|a| p.delay_ms(a)).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 8, 8, 8],
            "doubling then capped"
        );
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        // Stall the broker for two epochs; each request batch advances
        // one epoch, so a couple of retries ride it out.
        server.broker().set_alloc_stall(2);
        client.set_retry_policy(RetryPolicy { max_attempts: 8, base_delay_ms: 0, max_delay_ms: 0 });
        let resp = client
            .call_with_retry(&Request::Alloc {
                tenant: "t".into(),
                size: 4096,
                criterion: hetmem_core::attr::CAPACITY,
                fallback: hetmem_alloc::Fallback::PartialSpill,
                label: None,
                ttl: None,
            })
            .expect("retries ride out the stall");
        assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
        server.shutdown();
    }

    /// A skewed round on a two-shard plane: shard 0's token is held,
    /// as by a busy holder, so each post that finds two frames waiting
    /// steals onto shard 1. The served steals must reach the broker's
    /// steal-rate meter.
    #[test]
    fn served_steals_feed_the_steal_rate_meter() {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::FairShare));
        let plane = Plane::new(broker.clone(), ShardConfig { shards: 2, coalesce: false }, None);
        let (ours, _peer) = UnixStream::pair().expect("socket pair");
        let reply_to = Arc::new(Mutex::new(Conn::Unix(ours)));
        let busy = plane.tokens[0].lock().expect("token");
        for _ in 0..4 {
            let request = Ok(Request::Stats);
            plane.post(0, Work::Request { conn_id: 0, request, reply_to: reply_to.clone() });
        }
        drop(busy);
        assert_eq!(plane.queues.lock(0).len(), 1, "the victim keeps its head");
        broker.advance_epoch();
        assert!(broker.steal_rate() > 0.0, "steal rate {}", broker.steal_rate());
    }

    #[test]
    fn unix_socket_roundtrip() {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::Fcfs));
        let path =
            std::env::temp_dir().join(format!("hetmem-serve-test-{}.sock", std::process::id()));
        let mut server = Server::bind(broker, &format!("unix:{}", path.display())).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "u");
        server.shutdown();
        assert!(!path.exists(), "socket file is cleaned up on shutdown");
    }
}
