//! Host facts and process accounting, read from `/proc` with std only.

use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every mainstream Linux build).
pub const USER_HZ: u64 = 100;

/// `utime + stime` in clock ticks from the text of `/proc/self/stat`.
///
/// The command name (field 2) is parenthesised and may hold spaces or
/// parentheses itself, so fields are counted from the *last* `)`.
#[must_use]
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/self/status`.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

/// The first `model name` in the text of `/proc/cpuinfo`.
#[must_use]
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// User + system CPU time this process has used so far, all threads.
///
/// # Errors
///
/// Returns a message if `/proc/self/stat` is unreadable or malformed.
pub fn process_cpu() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or("malformed /proc/self/stat")?;
    Ok(Duration::from_millis(ticks * 1000 / USER_HZ))
}

/// Peak resident set of this process so far, in MiB.
///
/// # Errors
///
/// Returns a message if `/proc/self/status` is unreadable or has no
/// `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host a result was measured on, recorded beside every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Worker threads the measured runs use.
    pub threads: usize,
}

impl Host {
    /// Gathers the host record. Facts that cannot be read are `unknown`.
    #[must_use]
    pub fn probe(threads: usize) -> Host {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| parse_cpu_model(&text))
            .unwrap_or_else(unknown);
        // Only a checkout that is itself a work tree names its commit; a
        // parent directory's repository would name the wrong one.
        let commit = if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            None
        };
        Host {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            commit: commit.unwrap_or_else(unknown),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            threads,
        }
    }

    /// The record as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \
             \"profile\": {}, \"threads\": {}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.commit),
            json_string(self.profile),
            self.threads
        )
    }
}

/// First line of a command's standard output, if it ran and succeeded.
/// `output` waits for the child, so no process outlives the call.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_count_fields_after_the_last_paren() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (perf bench) x) R 1 4242 4242 0 -1 4194304 523 0 0 0 \
                    137 29 0 0 20 0 3 0 12345 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(137 + 29));
        assert_eq!(parse_cpu_ticks("no parens at all"), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  90000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51234));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let cpuinfo =
            "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Test CPU @ 2.00GHz\n\
                       processor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Test CPU @ 2.00GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu().is_ok());
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
