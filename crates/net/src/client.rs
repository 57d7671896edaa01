//! A blocking client for the `fews-net` protocol.

use crate::fault::{FaultPlan, SendFault};
use crate::proto::{
    check_frame_len, ErrorCode, ReadMode, Request, Response, WireNodeInfo, WireSpaceInfo,
    WireStats, WireView,
};
use fews_common::rng::splitmix64;
use fews_common::{SpaceConfig, SpaceId};
use fews_core::neighbourhood::Neighbourhood;
use fews_stream::Update;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's bytes did not parse, or a response had the wrong kind.
    Protocol(String),
    /// The server answered with an error frame.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Backoff hint in milliseconds (meaningful for
        /// [`ErrorCode::Overloaded`]; 0 = no hint).
        retry_after_ms: u64,
    },
}

impl ClientError {
    /// The server's backoff hint, when this error is a load-shedding
    /// rejection ([`ErrorCode::Overloaded`]): wait at least this long
    /// before retrying.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Server {
                code: ErrorCode::Overloaded,
                retry_after_ms,
                ..
            } => Some(Duration::from_millis(*retry_after_ms)),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server {
                code,
                message,
                retry_after_ms,
            } => {
                write!(f, "server rejected request ({code:?}): {message}")?;
                if *retry_after_ms > 0 {
                    write!(f, " (retry after {retry_after_ms} ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Capacity a reused frame buffer may keep between requests. Covers every
/// steady-state frame (ingest batches, query answers); buffers grown by a
/// rare outsized frame (checkpoint/restore) shrink back to this.
const BUF_RETAIN: usize = 1 << 20;

/// Connection behaviour knobs for [`Client::connect_with`].
///
/// The default ([`ClientOptions::default`]) matches the historic
/// [`Client::connect`] behaviour: block forever on connect and i/o, no
/// retries — interactive tools opt into bounds, the cluster router always
/// runs with them (a hung worker must not wedge the whole cluster).
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Give up establishing the TCP connection after this long
    /// (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Fail a read that stalls longer than this (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Fail a write that stalls longer than this (`None` = block forever).
    pub write_timeout: Option<Duration>,
    /// Extra connect attempts after the first fails (0 = single attempt).
    pub retries: u32,
    /// Backoff before the first retry; doubles each subsequent attempt
    /// (exponential), capped at [`ClientOptions::backoff_cap`].
    pub backoff: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub backoff_cap: Duration,
    /// Full-jitter seed. `Some(s)`: each retry sleeps a *uniform* draw from
    /// `[0, capped backoff)`, derived deterministically from `(s, attempt)`
    /// — N retrying clients seeded differently stop synchronizing their
    /// retry storms against a recovering node. `None`: exact exponential
    /// sleeps (the historic behaviour, and what deterministic tests want).
    pub jitter_seed: Option<u64>,
    /// Extra attempts after a request is rejected [`ErrorCode::Overloaded`]
    /// (0 = surface the rejection immediately). Each retry sleeps at least
    /// the server's `retry_after_ms` hint, and at least the jittered
    /// exponential backoff — honoring the hint is what keeps a shedding
    /// server from being hammered by synchronized retries. Overload
    /// rejections are *determinate* (nothing was applied), so this retry is
    /// safe for every request kind, ingest included.
    pub overload_retries: u32,
    /// Opt-in: resend an ingest batch (over a fresh connection) after an
    /// *indeterminate* transport failure — the frame may have been delivered
    /// and applied even though no ack arrived, so a resend can double-apply
    /// the batch. Leave this off unless the stream is idempotent or an
    /// external ledger deduplicates; the default surfaces the error and
    /// leaves the applied-or-not question to the caller.
    pub ingest_resend: bool,
    /// Deterministic transport fault injection (the cluster fault lab);
    /// `None` = a faithful transport.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
            retries: 0,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: None,
            overload_retries: 0,
            ingest_resend: false,
            faults: None,
        }
    }
}

impl ClientOptions {
    /// One timeout for connect, read, and write; `retries` extra connect
    /// attempts — the shape every CLI flag pair (`--timeout-ms`,
    /// `--retries`) maps onto.
    pub fn bounded(timeout: Duration, retries: u32) -> ClientOptions {
        ClientOptions {
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
            retries,
            ..ClientOptions::default()
        }
    }
}

/// A connected `fews-net` client. One request/response at a time; reuse the
/// connection for as many requests as you like.
///
/// Every data request is addressed to the client's *current space* (the
/// default space after [`Client::connect`]; change it with
/// [`Client::set_space`] / [`Client::with_space`]). Space lifecycle calls
/// ([`Client::create_space`] / [`Client::drop_space`] /
/// [`Client::list_spaces`]) name their target explicitly and leave the
/// current space untouched.
///
/// The client owns one send and one receive buffer for its whole life:
/// request frames are encoded in place and response payloads read in place,
/// so the steady-state request loop performs no per-frame allocations
/// beyond what the decoded response itself owns.
///
/// **Freshness.** Every ingest ack carries the server's watermark for the
/// batch; the client remembers the highest one it has seen *per space*
/// (watermarks are space-local sequence numbers — one tenant's counter
/// says nothing about another's) and, by default, stamps every query with
/// `ReadMode::AtLeast(watermark)` for the space it addresses — the server
/// blocks (bounded) until its published snapshot covers the client's own
/// acked writes. [`Client::set_stale`] opts the connection out (`?stale`):
/// queries answer immediately from the latest published snapshot, which
/// may trail the last ack by a publish interval. Dropping or (re)creating
/// a space forgets its remembered watermark — the fresh space starts a
/// fresh counter.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    space: SpaceId,
    bytes_sent: u64,
    bytes_received: u64,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    /// The options this client was dialled with — kept for overload backoff
    /// and (opt-in) ingest resend over a fresh connection.
    opts: ClientOptions,
    /// The resolved addresses the client dialled (reused by reconnects).
    addrs: Vec<std::net::SocketAddr>,
    /// Requests attempted on this connection (drives fault slow-start).
    ops: u64,
    /// Highest ingest-ack watermark observed per space (absent = nothing
    /// acked there yet, i.e. watermark 0).
    watermarks: HashMap<SpaceId, u64>,
    /// When set, queries read `?stale` instead of waiting for `watermark`.
    stale: bool,
}

/// The sleep before retry `attempt`: `backoff` exactly, or — with a jitter
/// seed — a deterministic full-jitter draw from `[0, backoff)`. Full jitter
/// (rather than `backoff/2 + uniform(backoff/2)`) maximally decorrelates
/// clients that started their retry clocks together.
fn jittered(backoff: Duration, jitter_seed: Option<u64>, attempt: u32) -> Duration {
    match jitter_seed {
        None => backoff,
        Some(seed) => {
            let draw = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Duration::from_nanos((backoff.as_nanos() as u64).saturating_mul(draw >> 32) >> 32)
        }
    }
}

/// A server's `retry_after_ms` hint may not be trusted blindly — a buggy or
/// hostile peer could park a client for hours. Clamp here.
const MAX_RETRY_HINT: Duration = Duration::from_secs(10);

/// Establish one TCP connection with the options' bounded-retry loop:
/// up to `1 + opts.retries` attempts with (jittered) exponential backoff,
/// consulting the fault plan at each attempt.
fn dial(addrs: &[std::net::SocketAddr], opts: &ClientOptions) -> std::io::Result<TcpStream> {
    let cap = opts.backoff_cap.max(Duration::from_millis(1));
    let mut backoff = opts.backoff.min(cap);
    let mut last_err = None;
    for attempt in 0..=opts.retries {
        if attempt > 0 {
            std::thread::sleep(jittered(backoff, opts.jitter_seed, attempt));
            backoff = (backoff * 2).min(cap);
        }
        if let Some(plan) = &opts.faults {
            if plan.connect_refused() {
                last_err = Some(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "fault injection: connect refused",
                ));
                continue;
            }
        }
        for sock in addrs {
            let connected = match opts.connect_timeout {
                Some(t) => TcpStream::connect_timeout(sock, t),
                None => TcpStream::connect(sock),
            };
            match connected {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(opts.read_timeout)?;
                    stream.set_write_timeout(opts.write_timeout)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
    }
    Err(last_err.expect("at least one attempt"))
}

impl Client {
    /// Connect to a server, addressing the default space. Blocks without
    /// bound — use [`Client::connect_with`] for timeouts and retry.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, &ClientOptions::default())
    }

    /// Connect with explicit timeouts and bounded retry: up to
    /// `1 + opts.retries` connect attempts, sleeping `opts.backoff` before
    /// the first retry and doubling it each subsequent one (capped at
    /// `opts.backoff_cap`; with `opts.jitter_seed` the sleep is a
    /// deterministic full-jitter draw from `[0, capped backoff)`). The
    /// read/write timeouts stay armed on the stream for the connection's
    /// whole life, so a server that hangs mid-response fails the request
    /// instead of wedging the caller.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: &ClientOptions) -> std::io::Result<Client> {
        let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let stream = dial(&addrs, opts)?;
        Ok(Client {
            stream,
            space: SpaceId::default_space(),
            bytes_sent: 0,
            bytes_received: 0,
            send_buf: Vec::new(),
            recv_buf: Vec::new(),
            opts: opts.clone(),
            addrs,
            ops: 0,
            watermarks: HashMap::new(),
            stale: false,
        })
    }

    /// Drop the current connection and dial the same address with the same
    /// options (fresh slow-start, fresh fault-plan connection state). The
    /// remembered per-space watermarks survive — read-your-writes carries
    /// across reconnects to the same server.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.stream = dial(&self.addrs, &self.opts)?;
        self.ops = 0;
        Ok(())
    }

    /// The space this client currently addresses.
    pub fn space(&self) -> &SpaceId {
        &self.space
    }

    /// Address `space` from now on.
    pub fn set_space(&mut self, space: SpaceId) {
        self.space = space;
    }

    /// Builder form of [`Client::set_space`].
    pub fn with_space(mut self, space: SpaceId) -> Client {
        self.space = space;
        self
    }

    /// Bytes written to the socket so far (frames included).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes read from the socket so far (frames included).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// The highest ingest-ack watermark this client has observed for its
    /// current space — what its queries wait for by default, and what a
    /// fan-out caller asks its reads to cover.
    pub fn watermark(&self) -> u64 {
        self.watermarks.get(&self.space).copied().unwrap_or(0)
    }

    /// Override the current space's remembered watermark (e.g. a watermark
    /// handed over from another connection — read-your-writes is
    /// transferable between clients of the same space).
    pub fn set_watermark(&mut self, watermark: u64) {
        self.watermarks.insert(self.space.clone(), watermark);
    }

    /// Opt this connection's queries out of read-your-writes (`?stale`):
    /// answer immediately from the latest published snapshot instead of
    /// waiting for the client's watermark.
    pub fn set_stale(&mut self, stale: bool) {
        self.stale = stale;
    }

    /// Whether queries currently read `?stale`.
    pub fn stale(&self) -> bool {
        self.stale
    }

    /// The [`ReadMode`] the next query will carry.
    fn read_mode(&self) -> ReadMode {
        if self.stale {
            ReadMode::Stale
        } else {
            ReadMode::AtLeast(self.watermark())
        }
    }

    /// Send the frame currently staged in `send_buf` and read one response
    /// frame into `recv_buf`. Both buffers keep their capacity across calls.
    fn transact_staged(&mut self) -> Result<Response, ClientError> {
        self.write_staged()?;
        self.read_staged()
    }

    /// Write the frame staged in `send_buf` — the split-phase send half. A
    /// fault plan, if armed, may refuse to deliver it (cut or stall); the
    /// payload bytes that do go out are never altered.
    fn write_staged(&mut self) -> Result<(), ClientError> {
        self.ops += 1;
        if let Some(plan) = &self.opts.faults {
            if let Some(extra) = plan.slow_start(self.ops) {
                std::thread::sleep(extra);
            }
            match plan.send_fault(self.send_buf.len()) {
                SendFault::None => {}
                SendFault::CutAfter(at) => {
                    let at = at.min(self.send_buf.len().saturating_sub(1));
                    let _ = self.stream.write_all(&self.send_buf[..at]);
                    let _ = self.stream.shutdown(Shutdown::Both);
                    self.bytes_sent += at as u64;
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        format!("fault injection: frame cut after {at} bytes"),
                    )));
                }
                SendFault::Stall(d) => {
                    std::thread::sleep(d);
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "fault injection: request stalled past the read timeout",
                    )));
                }
                SendFault::DeliverThenCut => {
                    // The indeterminate failure: the whole frame reaches the
                    // server, the connection dies before any response. The
                    // server may have applied the request.
                    let _ = self.stream.write_all(&self.send_buf);
                    let _ = self.stream.flush();
                    self.bytes_sent += self.send_buf.len() as u64;
                    let _ = self.stream.shutdown(Shutdown::Both);
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "fault injection: frame delivered, connection cut before the response",
                    )));
                }
            }
        }
        self.stream.write_all(&self.send_buf)?;
        self.bytes_sent += self.send_buf.len() as u64;
        if self.send_buf.capacity() > BUF_RETAIN {
            self.send_buf.shrink_to(BUF_RETAIN); // see recv_buf below
        }
        Ok(())
    }

    /// Read one response frame — the split-phase receive half.
    fn read_staged(&mut self) -> Result<Response, ClientError> {
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header)?;
        let len = check_frame_len(u32::from_le_bytes(header) as u64)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.recv_buf.clear();
        self.recv_buf.resize(len, 0);
        self.stream.read_exact(&mut self.recv_buf)?;
        self.bytes_received += 4 + len as u64;
        let response =
            Response::decode(&self.recv_buf).map_err(|e| ClientError::Protocol(e.to_string()));
        // One outsized response (a multi-MB checkpoint; frames go up to
        // MAX_FRAME = 64 MiB) must not pin that capacity for the client's
        // whole life.
        if self.recv_buf.capacity() > BUF_RETAIN {
            self.recv_buf.shrink_to(BUF_RETAIN);
        }
        response
    }

    /// Split-phase request, send half: write one request (addressed to the
    /// current space) without waiting for its response. A fan-out caller
    /// writes to every peer, then collects each response with
    /// [`Client::recv`]. Exactly one `recv` must follow each successful
    /// `send` before any other request on this client.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.send_buf.clear();
        request.encode_into(&self.space, &mut self.send_buf);
        self.write_staged()
    }

    /// Split-phase request, receive half: read the response to a previous
    /// [`Client::send`]; an error frame comes back as
    /// [`ClientError::Server`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match self.read_staged()? {
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after_ms,
            }),
            other => Ok(other),
        }
    }

    /// Send one request (addressed to the current space) and read one
    /// response frame.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send_buf.clear();
        request.encode_into(&self.space, &mut self.send_buf);
        self.transact_staged()
    }

    fn expect_staged(&mut self) -> Result<Response, ClientError> {
        self.write_staged()?;
        self.recv()
    }

    fn expect(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.expect_in(&self.space.clone(), request)
    }

    /// Sleep before overload retry number `attempt`: at least the jittered
    /// exponential backoff, and at least the server's hint (clamped to
    /// [`MAX_RETRY_HINT`]) — the hint is what spreads a flash crowd's
    /// retries out instead of re-synchronizing them on the shedding server.
    fn overload_pause(&self, hint: Duration, attempt: u32) {
        let cap = self.opts.backoff_cap.max(Duration::from_millis(1));
        let exp = self
            .opts
            .backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(cap);
        let sleep = jittered(exp, self.opts.jitter_seed, attempt).max(hint.min(MAX_RETRY_HINT));
        std::thread::sleep(sleep);
    }

    fn expect_in(&mut self, space: &SpaceId, request: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            self.send_buf.clear();
            request.encode_into(space, &mut self.send_buf);
            match self.expect_staged() {
                Err(e) if attempt < self.opts.overload_retries && e.retry_after().is_some() => {
                    attempt += 1;
                    self.overload_pause(e.retry_after().unwrap_or_default(), attempt);
                }
                other => return other,
            }
        }
    }

    /// Apply a batch of updates; returns the server's applied count.
    ///
    /// An [`ErrorCode::Overloaded`] rejection is *determinate* (the server
    /// admitted nothing), so with [`ClientOptions::overload_retries`] > 0
    /// the batch is retried after honoring the retry-after hint. A
    /// transport failure is *indeterminate* — the batch may already be
    /// applied — and is only resent (over a fresh connection) when the
    /// caller opted in via [`ClientOptions::ingest_resend`].
    pub fn ingest_batch(&mut self, updates: &[Update]) -> Result<u64, ClientError> {
        let mut overload_attempt = 0u32;
        let mut resends = 0u32;
        loop {
            let outcome = self.ingest_send(updates).and_then(|()| self.ingest_ack());
            match outcome {
                Err(e)
                    if overload_attempt < self.opts.overload_retries
                        && e.retry_after().is_some() =>
                {
                    overload_attempt += 1;
                    self.overload_pause(e.retry_after().unwrap_or_default(), overload_attempt);
                }
                Err(ClientError::Io(_))
                    if self.opts.ingest_resend && resends <= self.opts.retries =>
                {
                    resends += 1;
                    self.reconnect()?;
                }
                other => return other,
            }
        }
    }

    /// Split-phase ingest, send half: encode and write the batch frame
    /// without waiting for the acknowledgement. A fan-out caller issues
    /// sends to *all* replicas, then collects every ack with
    /// [`Client::ingest_ack`] — the replicas apply the batch concurrently
    /// instead of one round-trip at a time. Exactly one `ingest_ack` must
    /// follow each successful `ingest_send` before any other request on
    /// this client.
    pub fn ingest_send(&mut self, updates: &[Update]) -> Result<(), ClientError> {
        // Worst-case wire size per update: two max-length varints + sign.
        if !crate::proto::body_fits(updates.len().saturating_mul(16) + 80) {
            return Err(ClientError::Protocol(format!(
                "batch of {} updates may not fit one frame — split it",
                updates.len()
            )));
        }
        self.send_buf.clear();
        crate::proto::encode_ingest_batch_into(&mut self.send_buf, &self.space, updates);
        self.write_staged()
    }

    /// Split-phase ingest, ack half: read the response to a previous
    /// [`Client::ingest_send`]; returns the server's applied count. The
    /// ack's watermark is remembered — subsequent queries wait for it.
    pub fn ingest_ack(&mut self) -> Result<u64, ClientError> {
        match self.recv()? {
            Response::Ingested { count, watermark } => {
                let entry = self.watermarks.entry(self.space.clone()).or_insert(0);
                *entry = (*entry).max(watermark);
                Ok(count)
            }
            other => Err(unexpected("Ingested", &other)),
        }
    }

    /// The space's certified output.
    pub fn certified(&mut self) -> Result<Option<Neighbourhood>, ClientError> {
        match self.expect(&Request::Certified(self.read_mode()))? {
            Response::Answer(nb) => Ok(nb),
            other => Err(unexpected("Answer", &other)),
        }
    }

    /// Everything provable about vertex `v`.
    pub fn certify(&mut self, v: u32) -> Result<Option<Neighbourhood>, ClientError> {
        match self.expect(&Request::Certify(v, self.read_mode()))? {
            Response::Answer(nb) => Ok(nb),
            other => Err(unexpected("Answer", &other)),
        }
    }

    /// The `k` vertices with the most collected witnesses.
    pub fn top(&mut self, k: u64) -> Result<Vec<Neighbourhood>, ClientError> {
        match self.expect(&Request::Top(k, self.read_mode()))? {
            Response::Top(list) => Ok(list),
            other => Err(unexpected("Top", &other)),
        }
    }

    /// Statistics for the current space.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.expect(&Request::Stats(self.read_mode()))? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetch a checkpoint of the current space (a space-tagged envelope).
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.expect(&Request::Checkpoint)? {
            Response::Checkpoint(bytes) => Ok(bytes),
            other => Err(unexpected("Checkpoint", &other)),
        }
    }

    /// Install a checkpoint into the current space.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        if !crate::proto::body_fits(bytes.len() + 80) {
            return Err(ClientError::Protocol(format!(
                "checkpoint is {} bytes, larger than one frame can carry",
                bytes.len()
            )));
        }
        self.send_buf.clear();
        crate::proto::encode_restore_into(&mut self.send_buf, &self.space, bytes);
        match self.expect_staged()? {
            Response::Restored => Ok(()),
            other => Err(unexpected("Restored", &other)),
        }
    }

    /// Create space `name` with the given model config. Any watermark
    /// remembered under that name belonged to a previous incarnation and
    /// is forgotten — the new space counts from zero.
    pub fn create_space(&mut self, name: &SpaceId, spec: SpaceConfig) -> Result<(), ClientError> {
        match self.expect_in(name, &Request::CreateSpace(spec))? {
            Response::SpaceOk => {
                self.watermarks.remove(name);
                Ok(())
            }
            other => Err(unexpected("SpaceOk", &other)),
        }
    }

    /// Drop space `name` and everything it holds; its remembered watermark
    /// goes with it.
    pub fn drop_space(&mut self, name: &SpaceId) -> Result<(), ClientError> {
        match self.expect_in(name, &Request::DropSpace)? {
            Response::SpaceOk => {
                self.watermarks.remove(name);
                Ok(())
            }
            other => Err(unexpected("SpaceOk", &other)),
        }
    }

    /// Enumerate every live space on the server, sorted by name.
    pub fn list_spaces(&mut self) -> Result<Vec<WireSpaceInfo>, ClientError> {
        match self.expect_in(&SpaceId::default_space(), &Request::ListSpaces)? {
            Response::Spaces(list) => Ok(list),
            other => Err(unexpected("Spaces", &other)),
        }
    }

    /// Ask the server to shut down. The connection is spent afterwards.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", &other)),
        }
    }

    /// Liveness probe: a full request/response round-trip that touches no
    /// space state.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// The current space's identity card (model, seed, partitions, ingest
    /// count) — what a router checks before admitting a worker.
    pub fn node_hello(&mut self) -> Result<WireNodeInfo, ClientError> {
        match self.expect(&Request::NodeHello)? {
            Response::NodeInfo(info) => Ok(info),
            other => Err(unexpected("NodeInfo", &other)),
        }
    }

    /// Assign the current space's owned partition slice (sorted, unique).
    pub fn slice_assign(&mut self, parts: &[u32]) -> Result<(), ClientError> {
        match self.expect(&Request::SliceAssign(parts.to_vec()))? {
            Response::SpaceOk => Ok(()),
            other => Err(unexpected("SpaceOk", &other)),
        }
    }

    /// Pull the space's query view if it changed past epoch `since`. The
    /// server first waits for its published snapshot to cover
    /// `min_watermark`, so a puller passing its acked watermark gets a view
    /// that includes everything it sent.
    pub fn view_pull(&mut self, since: u64, min_watermark: u64) -> Result<WireView, ClientError> {
        match self.expect(&Request::ViewPull {
            since,
            min_watermark,
        })? {
            Response::View(view) => Ok(view),
            other => Err(unexpected("View", &other)),
        }
    }

    /// Fetch a sparse slice checkpoint of the named partitions.
    pub fn slice_checkpoint(&mut self, parts: &[u32]) -> Result<Vec<u8>, ClientError> {
        match self.expect(&Request::SliceCheckpoint(parts.to_vec()))? {
            Response::Checkpoint(bytes) => Ok(bytes),
            other => Err(unexpected("Checkpoint", &other)),
        }
    }

    /// Install a sparse slice checkpoint into the current space.
    pub fn slice_restore(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        if !crate::proto::body_fits(bytes.len() + 80) {
            return Err(ClientError::Protocol(format!(
                "slice checkpoint is {} bytes, larger than one frame can carry",
                bytes.len()
            )));
        }
        self.send_buf.clear();
        crate::proto::encode_slice_restore_into(&mut self.send_buf, &self.space, bytes);
        match self.expect_staged()? {
            Response::Restored => Ok(()),
            other => Err(unexpected("Restored", &other)),
        }
    }

    /// Ask a router to admit the worker at `addr` into the cluster.
    pub fn join_worker(&mut self, addr: &str) -> Result<(), ClientError> {
        match self.expect(&Request::JoinWorker(addr.to_string()))? {
            Response::SpaceOk => Ok(()),
            other => Err(unexpected("SpaceOk", &other)),
        }
    }
}

/// The protocol error for a response of the wrong kind.
pub fn unexpected(wanted: &str, got: &Response) -> ClientError {
    let kind = match got {
        Response::Ingested { .. } => "Ingested",
        Response::Answer(_) => "Answer",
        Response::Top(_) => "Top",
        Response::Stats(_) => "Stats",
        Response::Checkpoint(_) => "Checkpoint",
        Response::Restored => "Restored",
        Response::SpaceOk => "SpaceOk",
        Response::Spaces(_) => "Spaces",
        Response::Bye => "Bye",
        Response::Pong => "Pong",
        Response::NodeInfo(_) => "NodeInfo",
        Response::View(_) => "View",
        Response::Hits(_) => "Hits",
        Response::Error { .. } => "Error",
    };
    ClientError::Protocol(format!("expected {wanted} response, got {kind}"))
}
