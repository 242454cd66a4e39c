//! Small helpers shared by the workloads: order statistics, CPU-time
//! and `/proc` memory readings, child-process plumbing and JSON
//! accessors.

use appvsweb_json::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Workers every workload runs with (the paper configuration's 2).
pub const WORKERS: usize = 2;

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A `kB` field (`VmHWM`, `VmRSS`, …) of `/proc/<pid>/status`; 0 when
/// unreadable.
pub fn proc_status_kb(pid: &str, field: &str) -> u64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// This process's `field` from `/proc/self/status`, in kB.
pub fn self_kb(field: &str) -> u64 {
    proc_status_kb("self", field)
}

/// A 64-bit seed derived from the benchmark seed and a purpose label,
/// so every input stream is a pure function of `--seed`.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in label.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h >> 16
}

/// MD5 of `bytes`, hex: the byte-identity witness the checks compare.
pub fn digest(bytes: &[u8]) -> String {
    appvsweb_pii::hash::md5_hex(bytes)
}

/// Run this executable with `args` to completion (stdout piped, stderr
/// inherited) and parse its last stdout line as JSON. `Err` carries a
/// description of what failed.
pub fn run_self(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn failed: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.is_empty()).unwrap_or("");
    appvsweb_json::parse(last).map_err(|e| format!("child output is not JSON: {e}"))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used so far, to the nanosecond. Unlike wall time it does
/// not grow while other tenants of a shared host hold the CPU.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds another process has used so far: `utime + stime` of
/// `/proc/<pid>/stat` (every thread, exited ones included), in the
/// kernel's 1/100 s ticks; 0 when unreadable.
pub fn proc_cpu_s(pid: u32) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at `state`
    // (field 3); utime and stime are fields 14 and 15.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// CPU seconds the live threads of process `pid` have used, to the
/// nanosecond (`/proc/<pid>/task/*/schedstat`). Exact for a process
/// none of whose threads has exited yet, such as one just started.
pub fn live_threads_cpu_s(pid: u32) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// A number from a JSON value (any numeric kind); 0 otherwise.
pub fn num(v: Option<&Json>) -> f64 {
    match v {
        Some(Json::Uint(u)) => *u as f64,
        Some(Json::Int(i)) => *i as f64,
        Some(Json::Float(f)) => *f,
        _ => 0.0,
    }
}

/// A list of numbers from a JSON array field.
pub fn nums(v: Option<&Json>) -> Vec<f64> {
    match v {
        Some(Json::Arr(items)) => items.iter().map(|i| num(Some(i))).collect(),
        _ => Vec::new(),
    }
}

/// A list of strings from a JSON array field.
pub fn strs(v: Option<&Json>) -> Vec<String> {
    match v {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|i| match i {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// A JSON array of floats.
pub fn float_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Float(*v)).collect())
}

/// A JSON array of strings.
pub fn str_arr(values: &[String]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Str(v.clone())).collect())
}

/// A flat `name -> number` map as a JSON object.
pub fn map_json(map: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Json::Float(*v)))
            .collect(),
    )
}

/// A flat `name -> number` JSON object back into a map.
pub fn json_map(v: Option<&Json>) -> BTreeMap<String, f64> {
    match v {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), num(Some(v))))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Per-key median over several maps (keys missing from a map are
/// skipped for that map).
pub fn median_maps(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut columns: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for map in maps {
        for (k, v) in map {
            columns.entry(k.clone()).or_default().push(*v);
        }
    }
    columns
        .into_iter()
        .map(|(k, vs)| {
            let m = median(&vs);
            (k, m)
        })
        .collect()
}

/// Value of `--flag` in `args`, if present.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Numeric `--flag`, or `default`.
pub fn flag_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// CPU seconds one [`reference_pass`] took, as a median, on the 2-vCPU
/// VM the benchmark was tuned on. Times scaled to this are "at
/// reference speed".
pub const REFERENCE_PASS_S: f64 = 0.0038;

/// One pass of the host-speed reference: a fixed chain of integer
/// hashing, owned by the benchmark and never by the program, so no
/// change to the program moves it. Returns the CPU seconds it took.
///
/// On a shared host the speed of a guest drifts by 10-20% over tens of
/// seconds, in CPU time as well as in wall time. In a 7-minute probe on
/// the 2-vCPU VM this benchmark was tuned on, the median of this pass
/// over ~17-second windows moved with the program's own campaigns
/// (correlation 0.9) at about half their amplitude, while memory-bound
/// kernels (pointer chasing, allocation churn) were noisier and
/// followed them less.
pub fn reference_pass() -> f64 {
    let c = cpu_s();
    let mut h: u64 = std::hint::black_box(0xcbf2_9ce4_8422_2325);
    for i in 0..std::hint::black_box(2_000_000u64) {
        h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(7);
    }
    std::hint::black_box(h);
    cpu_s() - c
}

/// `n` reference passes.
pub fn reference_passes(n: usize) -> Vec<f64> {
    (0..n).map(|_| reference_pass()).collect()
}

/// CPU seconds measured in a run whose reference passes took `passes`,
/// scaled to reference speed.
pub fn at_reference_speed(cpu_s: f64, passes: &[f64]) -> f64 {
    let pass = median(passes);
    if pass > 0.0 {
        cpu_s * REFERENCE_PASS_S / pass
    } else {
        cpu_s
    }
}
