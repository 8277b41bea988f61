//! Transports over [`Advisor::handle_line`]: TCP, Unix socket, and the
//! in-process script replayer the CI smoke uses for byte-comparisons.
//!
//! Both socket servers are thread-per-connection over `std::net` /
//! `std::os::unix::net` (the workspace's zero-dependency rule): each
//! client reads newline-delimited JSON requests and writes one response
//! line per request. A `shutdown` op flips a shared stop flag and pokes
//! the listener with a loopback connection so the blocking `accept`
//! observes it promptly. A request line longer than [`MAX_REQUEST_LINE`]
//! bytes gets one `invalid-request` reply and closes the connection, so
//! no client can grow the daemon's memory without limit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::advisor::{error_line, Advisor, Control, Reply};

/// Longest request line a socket client may send, newline excluded.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Replays a newline-delimited request script through `advisor`, writing
/// one response line per request to `out`. Blank lines and `#` comment
/// lines are skipped (so scripts can be annotated). Stops early after a
/// `shutdown` op. Returns the number of requests processed.
///
/// This is the determinism harness: the CI smoke replays the same script
/// cold and warm, serial and parallel, and byte-compares the outputs.
pub fn run_script(advisor: &Advisor, script: &str, out: &mut dyn Write) -> std::io::Result<usize> {
    let mut handled = 0;
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let reply = advisor.handle_line(line);
        out.write_all(reply.text.as_bytes())?;
        out.write_all(b"\n")?;
        handled += 1;
        if reply.control == Control::Shutdown {
            break;
        }
    }
    out.flush()?;
    Ok(handled)
}

fn serve_client(advisor: &Advisor, stream: impl Read + Write, stop: &AtomicBool) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap: a line that fills it without a newline
        // is over-long.
        let cap = MAX_REQUEST_LINE as u64 + 1;
        match reader.by_ref().take(cap).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return, // client hung up
            Ok(_) => {}
        }
        let over_long = line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n');
        let reply = if over_long {
            let detail = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            Reply {
                text: error_line("", "", "invalid-request", &detail),
                control: Control::Continue,
            }
        } else {
            let Ok(text) = std::str::from_utf8(&line) else {
                return; // not UTF-8: hang up
            };
            if text.trim().is_empty() {
                continue;
            }
            advisor.handle_line(text.trim())
        };
        let stream = reader.get_mut();
        if stream.write_all(reply.text.as_bytes()).is_err()
            || stream.write_all(b"\n").is_err()
            || stream.flush().is_err()
            || over_long
        {
            return;
        }
        if reply.control == Control::Shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Serves `advisor` on a TCP address (e.g. `127.0.0.1:4870`) until a
/// client sends `{"op":"shutdown"}`. Blocks the calling thread.
pub fn serve_tcp(advisor: Arc<Advisor>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    eprintln!("smart-serve: listening on {local}");
    let stop = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let advisor = Arc::clone(&advisor);
        let stop_flag = Arc::clone(&stop);
        let stop_accept = Arc::clone(&stop);
        std::thread::spawn(move || {
            serve_client(&advisor, stream, &stop_flag);
            if stop_accept.load(Ordering::SeqCst) {
                // Poke the accept loop awake so shutdown is prompt.
                let _ = TcpStream::connect(local);
            }
        });
    }
    Ok(())
}

/// Serves `advisor` on a Unix-domain socket path until shutdown. The
/// socket file is removed first (stale sockets from a previous run would
/// otherwise refuse the bind) and unlinked on exit.
#[cfg(unix)]
pub fn serve_unix(advisor: Arc<Advisor>, path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    eprintln!("smart-serve: listening on {}", path.display());
    let stop = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let advisor = Arc::clone(&advisor);
        let stop_flag = Arc::clone(&stop);
        let stop_accept = Arc::clone(&stop);
        let poke = path.to_path_buf();
        std::thread::spawn(move || {
            serve_client(&advisor, stream, &stop_flag);
            if stop_accept.load(Ordering::SeqCst) {
                let _ = UnixStream::connect(&poke);
            }
        });
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeOptions;
    use smart_core::ParallelOptions;

    fn connect(addr: &str) -> TcpStream {
        // The listener may not be up yet; retry the connect briefly.
        for _ in 0..200 {
            if let Ok(s) = TcpStream::connect(addr) {
                // A server that never answers fails the test, not hangs it.
                s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                    .unwrap();
                return s;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("cannot connect to {addr}");
    }

    #[test]
    fn over_long_line_gets_one_invalid_request_reply_then_hangs_up() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let advisor = Arc::new(Advisor::new(ServeOptions {
            parallel: Some(ParallelOptions::with_workers(1)),
            ..ServeOptions::default()
        }));
        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || serve_tcp(advisor, &addr))
        };

        // Exactly one byte over the cap, and no newline.
        let mut flood = BufReader::new(connect(&addr));
        flood
            .get_mut()
            .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
            .unwrap();
        let mut reply = String::new();
        flood.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("{\"ok\":false,"), "{reply}");
        assert!(reply.contains("\"error\":\"invalid-request\""), "{reply}");
        reply.clear();
        assert_eq!(
            flood.read_line(&mut reply).unwrap(),
            0,
            "socket must be closed: {reply}"
        );

        // The daemon keeps serving other clients.
        let mut client = BufReader::new(connect(&addr));
        client
            .get_mut()
            .write_all(b"{\"op\":\"ping\",\"id\":\"p\"}\n")
            .unwrap();
        reply.clear();
        client.read_line(&mut reply).unwrap();
        assert_eq!(reply, "{\"ok\":true,\"op\":\"ping\",\"id\":\"p\"}\n");
        client
            .get_mut()
            .write_all(b"{\"op\":\"shutdown\",\"id\":\"s\"}\n")
            .unwrap();
        reply.clear();
        client.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("{\"ok\":true,\"op\":\"shutdown\""),
            "{reply}"
        );
        server.join().unwrap().unwrap();
    }
}
