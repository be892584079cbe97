//! What the benchmark reads about the machine it runs on: CPU time of
//! the process and of one thread, the host's steal share, a fixed
//! calibration loop, and a descriptor printed with every result.
//!
//! Steal share and calibration time only explain a noisy run. They
//! never rescale a metric or drop a run.

use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Iterations of the calibration loop (a few milliseconds).
const CALIB_ITERS: u64 = 4_000_000;

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// `clock_gettime` clock ids of the CPU-time clocks.
const CLOCK_PROCESS_CPUTIME_ID: usize = 2;
const CLOCK_THREAD_CPUTIME_ID: usize = 3;

/// `struct timespec` as the kernel writes it on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// Reads one clock with the raw `clock_gettime` syscall (this crate
/// links no libc binding). CPU-time clocks are the scheduler's
/// nanosecond run time: unlike the 10 ms ticks of `/proc/*/stat` they
/// resolve one request, and on a guest with paravirtual steal
/// accounting they leave out time the hypervisor stole.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn clock_s(clock: usize) -> io::Result<f64> {
    let mut ts = Timespec::default();
    let ret: isize;
    // SAFETY: clock_gettime(2) (nr 228) writes one timespec to the
    // pointer, which is live and exclusively borrowed for the call.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 228isize => ret,
            in("rdi") clock,
            in("rsi") &mut ts as *mut Timespec,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    timespec_s(ret, &ts)
}

/// See the x86_64 variant (clock_gettime is nr 113 here).
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn clock_s(clock: usize) -> io::Result<f64> {
    let mut ts = Timespec::default();
    let ret: isize;
    // SAFETY: as for x86_64: one timespec written to a live pointer.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") 113usize,
            inlateout("x0") clock => ret,
            in("x1") &mut ts as *mut Timespec,
            options(nostack),
        );
    }
    timespec_s(ret, &ts)
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn clock_s(_clock: usize) -> io::Result<f64> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "CPU-time clocks need Linux on x86_64 or aarch64",
    ))
}

#[allow(dead_code)] // unused on targets without `clock_s`
fn timespec_s(ret: isize, ts: &Timespec) -> io::Result<f64> {
    if ret < 0 {
        return Err(io::Error::from_raw_os_error(-ret as i32));
    }
    Ok(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

/// CPU seconds of the whole process, exited threads included (the
/// executor's scoped workers exit after every fan-out).
pub fn process_cpu_s() -> io::Result<f64> {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> io::Result<f64> {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time the server spent between two [`ServerCpu::start`] /
/// [`ServerCpu::stop`] calls on the load-generator thread: the whole
/// process minus the generator thread itself.
pub struct ServerCpu {
    process: f64,
    thread: f64,
}

impl ServerCpu {
    pub fn start() -> io::Result<ServerCpu> {
        Ok(ServerCpu {
            process: process_cpu_s()?,
            thread: thread_cpu_s()?,
        })
    }

    /// Server CPU seconds since `start`.
    pub fn stop(&self) -> io::Result<f64> {
        let process = process_cpu_s()? - self.process;
        let thread = thread_cpu_s()? - self.thread;
        Ok((process - thread).max(0.0))
    }
}

/// Aggregate host CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    pub fn now() -> io::Result<HostCpu> {
        let text = std::fs::read_to_string("/proc/stat")?;
        let line = text.lines().next().ok_or_else(|| invalid("/proc/stat"))?;
        // cpu user nice system idle iowait irq softirq steal ...
        let values: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|v| v.parse().map_err(|_| invalid("/proc/stat")))
            .collect::<io::Result<_>>()?;
        if values.len() < 8 {
            return Err(invalid("/proc/stat"));
        }
        Ok(HostCpu {
            steal: values[7],
            total: values.iter().sum(),
        })
    }

    /// The share of host CPU time stolen by the hypervisor since `self`.
    pub fn steal_frac_since(&self) -> io::Result<f64> {
        let now = HostCpu::now()?;
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return Ok(0.0);
        }
        Ok(now.steal.saturating_sub(self.steal) as f64 / total as f64)
    }
}

/// Milliseconds one fixed integer loop takes: a probe of how fast this
/// core ran at the moment, comparable across runs on the same host.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..CALIB_ITERS {
        x = black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
        x ^= x >> 29;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The machine and server shape a result was measured on.
pub fn descriptor(width: usize, reactors: usize, shards: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    format!(
        "nproc={nproc} rustc=\"{rustc}\" executor_width={width} reactors={reactors} shards={shards}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_explorer::Explorer;
    use drone_serve::{ReactorConfig, ReactorServer};
    use drone_telemetry::Registry;
    use std::time::Duration;

    #[test]
    fn busy_thread_accrues_cpu_and_is_excluded_from_server_cpu() {
        let _serial = crate::serial_test();
        let cpu = ServerCpu::start().expect("CPU clock readable");
        let thread_before = thread_cpu_s().expect("CPU clock readable");
        let deadline = Instant::now() + Duration::from_millis(300);
        let mut x = 0u64;
        while Instant::now() < deadline {
            x = black_box(x.wrapping_add(1));
        }
        let busy = thread_cpu_s().expect("CPU clock readable") - thread_before;
        assert!(busy > 0.15, "a 300 ms spin accrued only {busy} s");
        let server = cpu.stop().expect("CPU clock readable");
        assert!(server < 0.05, "the generator's own spin leaked {server} s");
    }

    #[test]
    fn an_idle_server_accrues_roughly_zero_cpu() {
        let _serial = crate::serial_test();
        let registry = Registry::with_wall_clock();
        let config = ReactorConfig {
            reactors: 1,
            ..ReactorConfig::default()
        };
        let server = ReactorServer::start(Explorer::new(2), config, &registry).expect("start");
        let conn = std::net::TcpStream::connect(server.addr()).expect("connect");
        let cpu = ServerCpu::start().expect("CPU clock readable");
        std::thread::sleep(Duration::from_millis(1500));
        let idle = cpu.stop().expect("CPU clock readable");
        drop(conn);
        server.drain();
        // Zero epoll wakeups while idle: a few ms at most.
        assert!(idle <= 0.005, "idle server used {idle} s of CPU");
    }

    #[test]
    fn host_steal_share_is_a_fraction() {
        let _serial = crate::serial_test();
        let before = HostCpu::now().expect("CPU clock readable");
        std::thread::sleep(Duration::from_millis(50));
        let steal = before.steal_frac_since().expect("CPU clock readable");
        assert!((0.0..=1.0).contains(&steal));
        assert!(calibration_ms() > 0.0);
    }
}
