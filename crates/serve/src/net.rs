//! Minimal readiness polling for the event-loop transport.
//!
//! The workspace is fully offline (no `libc`/`mio` crates), so on Linux
//! the epoll surface is bound directly with `extern "C"` declarations —
//! a handful of syscall wrappers and one struct, nothing more. Elsewhere
//! a portable sleep-poll fallback reports every registered socket as
//! ready on each tick; sockets are non-blocking, so spurious readiness
//! costs a `WouldBlock` and nothing else.
//!
//! The poller is level-triggered: a socket with buffered input stays
//! ready until drained, which keeps the connection state machine free
//! of edge-trigger re-arm subtleties. Token [`WAKE`] is reserved for the
//! cross-thread wake channel ([`Poller::wake`]). All methods take
//! `&self`, so one thread can block in [`Poller::wait`] while others
//! register sockets or wake it — the documented-safe concurrent use of
//! epoll.

/// Reserved token reported when another thread called [`Poller::wake`].
pub const WAKE: u64 = u64::MAX;

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    Read,
    ReadWrite,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    /// Input available — or error/hangup, which a read also surfaces.
    /// Write readiness needs no flag: the event loop flushes on every
    /// event for a connection.
    pub readable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest, WAKE};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_uint, c_void};

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    /// Events drained per `epoll_wait` call (more stay queued — epoll is
    /// level-triggered, nothing is lost).
    const WAIT_BATCH: usize = 256;

    /// The kernel ABI struct. Packed on x86-64 (the kernel declares it
    /// `__attribute__((packed))` there so 32- and 64-bit layouts match);
    /// naturally aligned everywhere else.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// epoll-backed readiness poller with an eventfd wake channel.
    pub struct Poller {
        epfd: RawFd,
        wakefd: RawFd,
    }

    fn events_for(interest: Interest) -> u32 {
        match interest {
            Interest::Read => EPOLLIN,
            Interest::ReadWrite => EPOLLIN | EPOLLOUT,
        }
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscalls creating fds; results are checked.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let wakefd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    // SAFETY: epfd came from epoll_create1 above.
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller { epfd, wakefd };
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: WAKE,
            };
            // SAFETY: both fds are live and owned by us; ev outlives the call.
            cvt(unsafe { epoll_ctl(poller.epfd, EPOLL_CTL_ADD, poller.wakefd, &mut ev) })?;
            Ok(poller)
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: events_for(interest),
                data: token,
            };
            // SAFETY: fd is a live socket owned by the caller; ev outlives the call.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
        }

        pub fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: events_for(interest),
                data: token,
            };
            // SAFETY: as for register; MOD requires fd already registered.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(drop)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            // DEL ignores the event argument on modern kernels, but a
            // non-null pointer keeps pre-2.6.9 semantics valid.
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: fd was registered on this epoll instance.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
        }

        /// Wake a concurrent [`Poller::wait`] (or the next one). Safe
        /// from any thread; coalesces (the eventfd counter accumulates).
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: wakefd is a live eventfd; 8 bytes is its record size.
            let _ = unsafe { write(self.wakefd, (&raw const one).cast(), 8) };
        }

        /// Block up to `timeout_ms` (`-1` = forever) and append readiness
        /// events to `out`. A [`WAKE`] token means another thread called
        /// [`Poller::wake`]; the channel is drained before returning.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
            let n = loop {
                // SAFETY: buf is valid for WAIT_BATCH events; the kernel
                // writes at most that many.
                let r = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), WAIT_BATCH as c_int, timeout_ms)
                };
                match cvt(r) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in buf.iter().take(n) {
                let bits = ev.events;
                let token = ev.data;
                if token == WAKE {
                    let mut drain: u64 = 0;
                    // SAFETY: nonblocking read of the 8-byte eventfd counter.
                    let _ = unsafe { read(self.wakefd, (&raw mut drain).cast(), 8) };
                }
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: both fds were created in new() and are owned here.
            unsafe {
                close(self.epfd);
                close(self.wakefd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest, WAKE};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// Portable fallback: report every registered socket as ready each
    /// tick. Non-blocking I/O turns false positives into `WouldBlock`,
    /// so this trades CPU (a 1 ms cadence) for correctness without any
    /// OS-specific code.
    pub struct Poller {
        registered: Mutex<HashMap<RawFd, u64>>,
        woken: AtomicBool,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(HashMap::new()),
                woken: AtomicBool::new(false),
            })
        }

        pub fn register(&self, fd: RawFd, token: u64, _interest: Interest) -> io::Result<()> {
            self.lock().insert(fd, token);
            Ok(())
        }

        pub fn rearm(&self, fd: RawFd, token: u64, _interest: Interest) -> io::Result<()> {
            self.lock().insert(fd, token);
            Ok(())
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.lock().remove(&fd);
            Ok(())
        }

        pub fn wake(&self) {
            self.woken.store(true, Ordering::SeqCst);
        }

        pub fn wait(&self, out: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<()> {
            std::thread::sleep(std::time::Duration::from_millis(1));
            if self.woken.swap(false, Ordering::SeqCst) {
                out.push(Event {
                    token: WAKE,
                    readable: true,
                });
            }
            for &token in self.lock().values() {
                out.push(Event {
                    token,
                    readable: true,
                });
            }
            Ok(())
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<RawFd, u64>> {
            self.registered
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }
}

pub use sys::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn wake_is_visible_across_threads() {
        let poller = Poller::new().expect("poller");
        // No registrations: without the wake this wait would time out.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                poller.wake();
            });
            let mut events = Vec::new();
            let mut woke = false;
            for _ in 0..500 {
                poller.wait(&mut events, 5_000).expect("wait");
                if events.iter().any(|e| e.token == WAKE) {
                    woke = true;
                    break;
                }
                events.clear();
            }
            assert!(woke, "wake token surfaced");
        });
    }

    #[test]
    fn socket_readiness_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("poller");
        poller
            .register(server.as_raw_fd(), 7, Interest::Read)
            .expect("register");

        client.write_all(b"hello").expect("write");
        let mut events = Vec::new();
        // Up to a few ticks on the fallback poller.
        for _ in 0..200 {
            poller.wait(&mut events, 1_000).expect("wait");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            events.clear();
        }
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let mut server = server;
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"hello");

        // Write interest surfaces an event on an idle, drained socket.
        poller
            .rearm(server.as_raw_fd(), 7, Interest::ReadWrite)
            .expect("rearm");
        events.clear();
        for _ in 0..200 {
            poller.wait(&mut events, 1_000).expect("wait");
            if events.iter().any(|e| e.token == 7) {
                break;
            }
            events.clear();
        }
        assert!(events.iter().any(|e| e.token == 7));
        poller.deregister(server.as_raw_fd()).expect("deregister");
    }
}
