//! Zero-dependency epoll/eventfd syscall shims for the reactor.
//!
//! The repo's ground rule is no external runtime deps, so there is no
//! `libc` or `mio` to lean on; this module is the `drone_math`-style
//! vendored equivalent — raw Linux syscalls through stable
//! `core::arch::asm!`, wrapped in safe RAII types (`OwnedFd` closes on
//! drop). Only the five calls the reactor needs are shimmed:
//! `epoll_create1`, `epoll_ctl`, `epoll_wait`/`epoll_pwait`,
//! `eventfd2`, and `read`/`write` on the eventfd.
//!
//! Portability: the asm paths cover `linux + (x86_64 | aarch64)` — the
//! dev boxes and CI runners this repo targets. Elsewhere every entry
//! point returns `ENOSYS`-flavoured `io::Error`s: the crate still
//! builds, but there is no serving front-end —
//! [`crate::ReactorServer::start`] fails with that error.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never subscribed).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never subscribed).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0o2000000;
const EFD_CLOEXEC: usize = 0o2000000;
const EFD_NONBLOCK: usize = 0o4000;
const EINTR: i32 = 4;

/// One readiness event. The kernel ABI packs this struct on x86_64
/// (4-byte `events` directly followed by the 8-byte `data`); other
/// architectures use natural alignment.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
pub struct EpollEvent {
    /// EPOLL* readiness bits.
    pub events: u32,
    /// The token registered with the fd.
    pub data: u64,
}

// The reactor is the only front-end, so a layout slip here would break
// all serving: pin the kernel ABI at compile time.
#[cfg(target_arch = "x86_64")]
const _: () = assert!(
    core::mem::size_of::<EpollEvent>() == 12 && core::mem::offset_of!(EpollEvent, data) == 4
);
#[cfg(target_arch = "aarch64")]
const _: () = assert!(
    core::mem::size_of::<EpollEvent>() == 16 && core::mem::offset_of!(EpollEvent, data) == 8
);

impl EpollEvent {
    /// A zeroed event, for pre-sizing wait buffers.
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }

    /// The registered token (copied out, packed-field safe).
    pub fn token(&self) -> u64 {
        self.data
    }

    /// The readiness bits (copied out, packed-field safe).
    pub fn readiness(&self) -> u32 {
        self.events
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const EPOLL_WAIT: usize = 232;
    pub const EPOLL_CTL: usize = 233;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
}

/// Raw 6-argument syscall. Unused trailing arguments are passed as 0;
/// the kernel ignores registers beyond a call's arity.
///
/// # Safety
///
/// The caller must uphold the invariants of the specific syscall:
/// valid fds, live buffers of the stated length, correct flag values.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

/// See the x86_64 variant.
///
/// # Safety
///
/// Same contract: the caller upholds the target syscall's invariants.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack),
    );
    ret
}

/// Stub for unsupported targets: always `ENOSYS` (38), so the reactor
/// constructors fail with a clean `io::Error` instead of linking libc.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
unsafe fn syscall6(
    _n: usize,
    _a: usize,
    _b: usize,
    _c: usize,
    _d: usize,
    _e: usize,
    _f: usize,
) -> isize {
    -38
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 0;
    pub const EPOLL_CTL: usize = 0;
    pub const EVENTFD2: usize = 0;
    pub const EPOLL_CREATE1: usize = 0;
    pub const EPOLL_PWAIT: usize = 0;
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// An epoll instance (closed on drop).
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            data: token,
        };
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut event as *mut EpollEvent
        };
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as usize,
                op,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Subscribes `fd` with the given interest bits and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Rewrites `fd`'s interest bits (the token rides along).
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Unsubscribes `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks for up to `timeout_ms` (−1 = forever, 0 = poll) and
    /// fills `events`. Returns the number of ready events; `EINTR`
    /// reports as 0 ready events rather than an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        let ret = unsafe {
            syscall6(
                nr::EPOLL_WAIT,
                self.fd.as_raw_fd() as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                0,
            )
        };
        // aarch64 never had plain epoll_wait; epoll_pwait with a null
        // sigmask is the same call. _NSIG/8 == 8 rides in sigsetsize.
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd.as_raw_fd() as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                8,
            )
        };
        match check(ret) {
            Err(e) if e.raw_os_error() == Some(EINTR) => Ok(0),
            other => other,
        }
    }
}

/// A nonblocking eventfd used to wake a reactor out of `epoll_wait`
/// (closed on drop).
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<EventFd> {
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        Ok(EventFd {
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Adds 1 to the counter, waking any epoll watcher. A saturated
    /// counter (`EAGAIN`) is already a pending wakeup, so errors are
    /// ignored.
    pub fn signal(&self) {
        let one: u64 = 1;
        let _ = check(unsafe {
            syscall6(
                nr::WRITE,
                self.fd.as_raw_fd() as usize,
                (&one as *const u64) as usize,
                8,
                0,
                0,
                0,
            )
        });
    }

    /// Resets the counter so the next `signal` re-arms readiness.
    pub fn drain(&self) {
        let mut value: u64 = 0;
        let _ = check(unsafe {
            syscall6(
                nr::READ,
                self.fd.as_raw_fd() as usize,
                (&mut value as *mut u64) as usize,
                8,
                0,
                0,
                0,
            )
        });
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_signal_wakes_an_epoll_wait() {
        let epoll = Epoll::new().expect("epoll_create1");
        let efd = EventFd::new().expect("eventfd2");
        epoll.add(efd.raw(), EPOLLIN, 42).expect("ctl add");

        let mut events = vec![EpollEvent::zeroed(); 4];
        // Nothing pending: a zero-timeout poll returns no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        efd.signal();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);

        // Drained, the fd goes quiet again (level-triggered).
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        epoll.delete(efd.raw()).expect("ctl del");
    }

    #[test]
    fn errno_values_map_to_their_io_error_kinds() {
        assert_eq!(
            check(-(EINTR as isize)).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        // EAGAIN.
        assert_eq!(check(-11).unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(check(3).unwrap(), 3);

        let epoll = Epoll::new().expect("epoll_create1");
        let efd = EventFd::new().expect("eventfd2");
        assert_eq!(
            epoll.delete(efd.raw()).unwrap_err().kind(),
            io::ErrorKind::NotFound,
            "ENOENT: the fd was never registered"
        );
        epoll.add(efd.raw(), EPOLLIN, 1).expect("ctl add");
        assert_eq!(
            epoll.add(efd.raw(), EPOLLIN, 1).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists,
            "EEXIST: the fd is already registered"
        );
    }

    #[test]
    fn draining_a_zero_eventfd_is_quiet() {
        let epoll = Epoll::new().expect("epoll_create1");
        let efd = EventFd::new().expect("eventfd2");
        epoll.add(efd.raw(), EPOLLIN, 5).expect("ctl add");
        // The read fails with EAGAIN, which `drain` swallows.
        efd.drain();
        let mut events = vec![EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "not ready");
    }

    #[test]
    fn sockets_report_read_readiness_and_rdhup() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll
            .add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 7)
            .unwrap();

        let mut events = vec![EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "idle socket");

        client.write_all(b"ping\n").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);

        drop(client);
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(
            events[0].readiness() & (EPOLLRDHUP | EPOLLHUP | EPOLLIN),
            0,
            "peer close must surface"
        );
    }
}
