//! [`MpMachine`]: constructing multi-process runs.
//!
//! Two run modes share one transport (the same sockets, frames and
//! [`MpProc`] engine):
//!
//! * [`MpMachine::run`] — **real OS processes**, one per rank.  The
//!   workspace forbids `unsafe` (so no `fork`), so workers are created by
//!   *re-execution*: the coordinator re-runs its own test binary
//!   (`std::env::current_exe`) filtered to the calling test, with the rank
//!   in the environment.  The worker child deterministically re-executes
//!   the test body up to the same `run` call — naturally reconstructing
//!   every mesh, distribution and owner table *per rank*, which is exactly
//!   the shared-memory flush the multi-process backend exists to force —
//!   and at the `run` call becomes rank `r`, executes the SPMD program,
//!   ships its [`Wire`]-encoded result back over a control socket, and
//!   exits inside the call.
//! * [`MpMachine::run_threads`] — the same socket mesh with **threads** as
//!   rank containers.  Every byte still crosses the transport (encode →
//!   frame → socket → decode); only process isolation is waived.  This is
//!   the mode embedders with non-`Wire` result types (the verify/mc
//!   sweeps) use, and it needs no test-harness cooperation.
//!
//! ## Bootstrap
//!
//! Workers rendezvous in a private directory of Unix-domain sockets: rank
//! `r` listens on `r.sock`, connects to every lower rank (identifying
//! itself with a `TRANSPORT_HELLO` frame), and accepts one connection from
//! every higher rank.  In process mode the coordinator additionally listens
//! on `ctl.sock`, where each worker announces itself and later delivers a
//! `TRANSPORT_RESULT` or `TRANSPORT_ERROR` frame.  Every wait is bounded by
//! a deadline, so a worker that dies during bootstrap produces a structured
//! error naming the missing rank instead of a hang.

use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kali_process::wire::{from_bytes, to_bytes};
use kali_process::{tags, threads, Wire};

use crate::frame::{self, Frame, FrameError};
use crate::proc::MpProc;

/// How long bootstrap waits for peers to appear before failing structured.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(20);

/// How long the coordinator waits for a worker's result frame.
const RESULT_TIMEOUT: Duration = Duration::from_secs(300);

/// Environment variable carrying a worker's rank (presence marks a worker).
const ENV_RANK: &str = "KALI_MP_RANK";
/// Environment variable carrying the run's rank count.
const ENV_NPROCS: &str = "KALI_MP_NPROCS";
/// Environment variable carrying the rendezvous directory.
const ENV_DIR: &str = "KALI_MP_DIR";
/// Environment variable carrying the entry label ([`MpMachine::run`]'s
/// `test` argument) so a test with several `run` calls pairs workers with
/// the right call site.
const ENV_ENTRY: &str = "KALI_MP_ENTRY";
/// Environment variable carrying the per-entry call sequence number, so a
/// test making several `run` calls under the same label (a loop over rank
/// counts or distributions) still pairs each worker with the exact call the
/// coordinator spawned it for.
const ENV_SEQ: &str = "KALI_MP_SEQ";

/// Monotonic run counter, part of the rendezvous directory name.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-entry-label `run`-call counters.  The coordinator and a re-executed
/// worker both count the calls their (deterministic) test body makes under
/// a given label, so "the N-th `run` call of test T" means the same call
/// site in both processes even when libtest runs other tests concurrently
/// in the coordinator.
fn next_call_seq(test: &str) -> u64 {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static SEQS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    let mut seqs = SEQS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("call-sequence table poisoned");
    let slot = seqs.entry(test.to_string()).or_insert(0);
    let seq = *slot;
    *slot += 1;
    seq
}

/// Remove the rendezvous directory when the owning scope exits.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A multi-process machine: `nprocs` SPMD ranks over the socket transport.
#[derive(Debug, Clone)]
pub struct MpMachine {
    nprocs: usize,
}

impl MpMachine {
    /// A machine with `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        assert!(nprocs > 0, "a machine needs at least one process");
        MpMachine { nprocs }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Run an SPMD program on **real OS processes**, one per rank, from
    /// inside a `#[test]`.
    ///
    /// `test` must be the calling test's full libtest path (what
    /// `cargo test <test> -- --exact` would match; for a test `fn ring()`
    /// inside `mod p2p` of an integration test, `"p2p::ring"`).  The
    /// coordinator re-executes the current binary with that filter once per
    /// rank; each child re-runs the test body up to this call,
    /// reconstructing all pre-run state per process, then becomes its rank
    /// here and **exits inside this call** after shipping its result.
    ///
    /// Returns `Some(results)` in rank order on the coordinator and `None`
    /// in a worker passing through a `run` call it was not spawned for: a
    /// test may make several `run` calls (loops over rank counts or
    /// distributions), and each spawned worker counts the calls it passes
    /// until it reaches the exact one — by entry label *and* per-label call
    /// sequence — its coordinator made.  Skipped calls run no SPMD code.
    ///
    /// A worker panic is re-reported on the coordinator with the worker's
    /// rank and panic message; a worker that dies silently produces a
    /// structured timeout error, never a hang.
    pub fn run<R, F>(&self, test: &str, f: F) -> Option<Vec<R>>
    where
        R: Wire,
        F: FnOnce(&mut MpProc) -> R,
    {
        let seq = next_call_seq(test);
        if let Ok(rank) = std::env::var(ENV_RANK) {
            let entry = std::env::var(ENV_ENTRY).unwrap_or_default();
            if entry != test {
                return None;
            }
            let want: u64 = std::env::var(ENV_SEQ)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("mp worker: {ENV_SEQ} missing or unparsable"));
            if seq != want {
                // An earlier (or later) `run` call of the same test; the
                // deterministic body will reach ours.
                return None;
            }
            let rank: usize = rank.parse().expect("KALI_MP_RANK must be a rank number");
            worker_main(rank, self.nprocs, test, f);
        }
        Some(coordinate(self.nprocs, test, seq))
    }

    /// Run an SPMD program over the socket transport with **threads** as
    /// rank containers: same mesh, frames, encode/decode and delivery
    /// engine as process mode — only process isolation is waived, which
    /// frees the result type from `Wire` (results return in-process).
    ///
    /// Deterministic like every backend: results depend only on inputs and
    /// ranks, never on scheduling.  A rank's panic closes its sockets, which
    /// fails every peer blocked on it, and reaches the caller as on the
    /// other in-process machines ([`threads::on_threads`]).
    pub fn run_threads<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut MpProc) -> R + Sync,
    {
        let p = self.nprocs;
        let dir = rendezvous_dir("threads");
        std::fs::create_dir_all(&dir).expect("creating the mp rendezvous directory");
        let _guard = DirGuard(dir.clone());

        // Each rank's mesh is fully connected before `f` starts, so results
        // cannot depend on whether a sibling is still mid-bootstrap.
        threads::on_threads(vec![(); p], |rank, ()| f(&mut connect_mesh(&dir, rank, p)))
    }
}

/// A fresh private rendezvous directory under the system temp dir.
fn rendezvous_dir(kind: &str) -> PathBuf {
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kali-mp-{kind}-{}-{}", std::process::id(), seq))
}

/// Build rank `rank`'s fully connected peer mesh in `dir` (see the module
/// docs for the rendezvous protocol) and wrap it in an [`MpProc`].
fn connect_mesh(dir: &Path, rank: usize, nprocs: usize) -> MpProc {
    let listener = UnixListener::bind(dir.join(format!("{rank}.sock")))
        .unwrap_or_else(|e| panic!("mp rank {rank}: binding the rendezvous socket: {e}"));
    let mut peers: Vec<Option<UnixStream>> = (0..nprocs).map(|_| None).collect();

    // Connect to every lower rank, announcing who we are.
    for (s, slot) in peers.iter_mut().enumerate().take(rank) {
        let stream = retry_connect(
            &dir.join(format!("{s}.sock")),
            &format!("mp rank {rank}"),
            &format!("rank {s}"),
        );
        frame::write_frame(
            &mut &stream,
            0,
            tags::TRANSPORT_HELLO,
            frame::type_hash::<u64>(),
            &to_bytes(&(rank as u64)),
        )
        .unwrap_or_else(|e| panic!("mp rank {rank}: sending hello to rank {s}: {e}"));
        *slot = Some(stream);
    }

    // Accept one connection from every higher rank; the hello frame says
    // which one, so acceptance order does not matter.
    listener
        .set_nonblocking(true)
        .expect("setting the rendezvous listener nonblocking");
    let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
    let mut remaining = nprocs - 1 - rank;
    while remaining > 0 {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .expect("restoring blocking mode on an accepted peer stream");
                let s = read_hello(&stream, &format!("mp rank {rank}"));
                assert!(
                    s > rank && s < nprocs,
                    "mp rank {rank}: hello from unexpected rank {s} of {nprocs}"
                );
                assert!(
                    peers[s].is_none(),
                    "mp rank {rank}: rank {s} connected twice"
                );
                peers[s] = Some(stream);
                remaining -= 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    let missing: Vec<usize> =
                        (rank + 1..nprocs).filter(|&s| peers[s].is_none()).collect();
                    panic!(
                        "mp rank {rank}: ranks {missing:?} did not connect within \
                         {BOOTSTRAP_TIMEOUT:?} (peer died during bootstrap?)"
                    );
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("mp rank {rank}: accepting a peer connection: {e}"),
        }
    }

    MpProc::from_peer_streams(rank, nprocs, peers)
}

/// Connect to a peer's rendezvous socket, retrying until it exists.
/// `who`/`peer` only label the failure message.
fn retry_connect(path: &Path, who: &str, peer: &str) -> UnixStream {
    let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return stream,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!("{who}: could not connect to {peer} within {BOOTSTRAP_TIMEOUT:?}: {e}");
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// Read and validate one hello frame, returning the announcing rank.
/// `me` only labels failure messages.
fn read_hello(mut stream: &UnixStream, me: &str) -> usize {
    let frame = frame::read_frame(&mut stream)
        .unwrap_or_else(|e| panic!("{me}: reading a peer hello: {e}"));
    assert_eq!(
        frame.tag,
        tags::TRANSPORT_HELLO,
        "{me}: first frame on a peer connection must be a hello, got tag {:#x}",
        frame.tag
    );
    let peer: u64 = from_bytes(&frame.payload)
        .unwrap_or_else(|e| panic!("{me}: undecodable hello payload: {e}"));
    usize::try_from(peer).expect("rank fits usize")
}

// ----------------------------------------------------------------
// Process mode: worker side
// ----------------------------------------------------------------

/// Worker entry: build the mesh, run the program, ship the result (or the
/// panic) over the control socket, and exit the process.  Never returns.
fn worker_main<R, F>(rank: usize, nprocs: usize, test: &str, f: F) -> !
where
    R: Wire,
    F: FnOnce(&mut MpProc) -> R,
{
    let env_nprocs: usize = std::env::var(ENV_NPROCS)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("mp worker: {ENV_NPROCS} missing or unparsable"));
    assert_eq!(
        env_nprocs, nprocs,
        "mp worker rank {rank}: coordinator ran `{test}` with {env_nprocs} ranks but this \
         worker's run call says {nprocs} — nondeterministic test body?"
    );
    let dir = PathBuf::from(
        std::env::var(ENV_DIR).unwrap_or_else(|_| panic!("mp worker: {ENV_DIR} missing")),
    );

    let ctl = retry_connect(
        &dir.join("ctl.sock"),
        &format!("mp worker rank {rank}"),
        "the coordinator",
    );
    frame::write_frame(
        &mut &ctl,
        0,
        tags::TRANSPORT_HELLO,
        frame::type_hash::<u64>(),
        &to_bytes(&(rank as u64)),
    )
    .unwrap_or_else(|e| panic!("mp worker rank {rank}: control hello failed: {e}"));

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut proc = connect_mesh(&dir, rank, nprocs);
        let result = f(&mut proc);
        // Dropping the proc joins the writer threads, so every frame this
        // rank sent is on the wire (or its peer is known-gone) before the
        // sockets close — peers still draining see data, then EOF.
        drop(proc);
        result
    }));

    match outcome {
        Ok(result) => {
            frame::write_frame(
                &mut &ctl,
                0,
                tags::TRANSPORT_RESULT,
                frame::type_hash::<R>(),
                &to_bytes(&result),
            )
            .unwrap_or_else(|e| panic!("mp worker rank {rank}: result delivery failed: {e}"));
            std::process::exit(0);
        }
        Err(cause) => {
            let message = threads::panic_text(cause.as_ref());
            let _ = frame::write_frame(
                &mut &ctl,
                0,
                tags::TRANSPORT_ERROR,
                frame::type_hash::<String>(),
                &to_bytes(&message),
            );
            std::process::exit(101);
        }
    }
}

// ----------------------------------------------------------------
// Process mode: coordinator side
// ----------------------------------------------------------------

/// Spawn one worker process per rank, collect every rank's result from the
/// control socket, and reap the children.
fn coordinate<R: Wire>(nprocs: usize, test: &str, seq: u64) -> Vec<R> {
    let dir = rendezvous_dir("proc");
    std::fs::create_dir_all(&dir).expect("creating the mp rendezvous directory");
    let _guard = DirGuard(dir.clone());
    let ctl = UnixListener::bind(dir.join("ctl.sock")).expect("binding the mp control socket");
    ctl.set_nonblocking(true)
        .expect("setting the control listener nonblocking");

    let exe = std::env::current_exe().expect("locating the current test binary");
    let mut children = Vec::with_capacity(nprocs);
    for rank in 0..nprocs {
        let child = std::process::Command::new(&exe)
            .arg(test)
            .args(["--exact", "--test-threads", "1", "--quiet"])
            .env(ENV_RANK, rank.to_string())
            .env(ENV_NPROCS, nprocs.to_string())
            .env(ENV_DIR, &dir)
            .env(ENV_ENTRY, test)
            .env(ENV_SEQ, seq.to_string())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawning mp worker rank {rank}: {e}"));
        children.push(child);
    }

    // Handshake: every worker announces itself on its own control
    // connection.  A worker that dies first (e.g. the test filter matched
    // nothing) is caught by the deadline + exit-status sweep.
    let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
    let mut streams: Vec<Option<UnixStream>> = (0..nprocs).map(|_| None).collect();
    let mut connected = 0usize;
    while connected < nprocs {
        match ctl.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .expect("restoring blocking mode on a control stream");
                stream
                    .set_read_timeout(Some(RESULT_TIMEOUT))
                    .expect("setting the control stream read timeout");
                let rank = read_hello(&stream, "mp coordinator");
                assert!(rank < nprocs, "control hello from unknown rank {rank}");
                assert!(
                    streams[rank].is_none(),
                    "worker rank {rank} connected to the control socket twice"
                );
                streams[rank] = Some(stream);
                connected += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                sweep_children(&mut children, test);
                if Instant::now() >= deadline {
                    let missing: Vec<usize> =
                        (0..nprocs).filter(|&r| streams[r].is_none()).collect();
                    panic!(
                        "mp workers {missing:?} never reached the run call for test \
                         `{test}` within {BOOTSTRAP_TIMEOUT:?} — is `{test}` the calling \
                         test's exact libtest path?"
                    );
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("accepting an mp control connection: {e}"),
        }
    }

    // Collect one result (or error) frame per rank.  Reading rank by rank
    // is deadlock-free: each worker produces its frame independently, and
    // the kernel buffers a finished worker's frame until we get to it.
    let mut results: Vec<Option<R>> = (0..nprocs).map(|_| None).collect();
    for rank in 0..nprocs {
        let mut stream = streams[rank].take().expect("control stream present");
        let Frame {
            tag,
            type_hash,
            payload,
            ..
        } = match frame::read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => {
                panic!("mp worker rank {rank} exited without delivering a result for `{test}`")
            }
            Err(e) => panic!("mp worker rank {rank}: corrupt result frame: {e}"),
        };
        match tag {
            tags::TRANSPORT_RESULT => {
                assert_eq!(
                    type_hash,
                    frame::type_hash::<R>(),
                    "mp worker rank {rank} returned a different result type \
                     (expected {})",
                    std::any::type_name::<R>()
                );
                let value: R = from_bytes(&payload).unwrap_or_else(|e| {
                    panic!("mp worker rank {rank}: undecodable result payload: {e}")
                });
                results[rank] = Some(value);
            }
            tags::TRANSPORT_ERROR => {
                let message: String = from_bytes(&payload)
                    .unwrap_or_else(|_| "<undecodable panic message>".to_string());
                // Tear the fleet down quietly: killed siblings exit with a
                // signal, which must not mask the worker's own message.
                for child in &mut children {
                    let _ = child.kill();
                }
                for child in &mut children {
                    let _ = child.wait();
                }
                panic!("mp worker rank {rank} panicked: {message}");
            }
            other => panic!(
                "mp worker rank {rank}: unexpected control frame tag {other:#x} \
                 (wanted a result or error frame)"
            ),
        }
    }

    reap(&mut children);
    results
        .into_iter()
        .map(|slot| slot.expect("missing worker result"))
        .collect()
}

/// Fail fast if any worker already exited unsuccessfully (e.g. the re-exec
/// test filter matched nothing, so the child ran zero tests and quit).
fn sweep_children(children: &mut [std::process::Child], test: &str) {
    for (rank, child) in children.iter_mut().enumerate() {
        if let Ok(Some(status)) = child.try_wait() {
            if !status.success() {
                panic!(
                    "mp worker rank {rank} exited with {status} before reaching the run \
                     call for `{test}`"
                );
            }
        }
    }
}

/// Wait for every child, surfacing nonzero exits (panics are reported via
/// error frames before this; a nonzero exit *here* means a worker died
/// after delivering its result, which still voids the run).
fn reap(children: &mut Vec<std::process::Child>) {
    for (rank, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => panic!("mp worker rank {rank} exited with {status}"),
            Err(e) => panic!("waiting for mp worker rank {rank}: {e}"),
        }
    }
    children.clear();
}
