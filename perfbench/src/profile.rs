//! Host-time span profile of the traced pass, recorded from outside the
//! program at its two public trait seams.
//!
//! [`Timed`] wraps any [`MemTool`] and [`TimedBackend`] wraps a [`Machine`]
//! behind [`MachineBackend`]; both forward every call unchanged, so a run
//! through them simulates exactly what an unwrapped run does (the traced
//! pass proves that cell for cell). Each forwarded call that does work is a
//! span on a per-thread stack. A span's *self* time is its duration minus
//! the spans nested inside it, so the self times of all layers add up to
//! the time spent inside outermost spans, with nothing counted twice.
//!
//! Work the OS or the injector does directly on the controller handle that
//! `controller_mut` returns is not a backend call; it is charged to the
//! caller's span.

use std::cell::RefCell;
use std::time::Instant;

use safemem_alloc::Heap;
use safemem_cache::Hierarchy;
use safemem_core::SurvivalSummary;
use safemem_core::{BugReport, CallStack, IncidentClass, MemTool, SamplingSummary};
use safemem_ecc::{EccController, EccFault, ScrambleScheme};
use safemem_machine::{Clock, CostModel, Machine, MachineBackend};
use safemem_os::Os;

/// A layer of the simulation that spans are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `record_campaign_trace`: recording one unique trace.
    Record,
    /// Building one panel run's OS, machine and tool from public
    /// constructors.
    Build,
    /// One campaign cell; its self time is the columnar dispatch loop plus
    /// scoring.
    Cell,
    /// The fault injector (the outer `MemTool` wrapper).
    Inject,
    /// SafeMem's hooks.
    SafeMem,
    /// Purify's hooks.
    Purify,
    /// Memcheck's hooks.
    Memcheck,
    /// PageGuard's hooks.
    PageGuard,
    /// The uninstrumented tool's hooks.
    Null,
    /// Machine reads and writes through the cache hierarchy.
    Access,
    /// Cache flushes.
    Flush,
    /// Uncached (kernel-path) reads and writes.
    Uncached,
    /// Background scrub steps.
    Scrub,
    /// Every other timed machine call (compute, fault draining, peeks).
    MachineOther,
    /// `Fleet::boot`.
    FleetBoot,
    /// `Fleet::run` (the phase-A live run on one shard).
    FleetRun,
    /// `run_fleet_sweep`.
    Sweep,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 17;

    /// The machine layers, whose self times sum to the machine's.
    pub const MACHINE: [Layer; 5] = [
        Layer::Access,
        Layer::Flush,
        Layer::Uncached,
        Layer::Scrub,
        Layer::MachineOther,
    ];

    /// The hook layer of a panel tool, by its `MemTool::name`.
    #[must_use]
    pub fn of_tool(name: &str) -> Layer {
        match name {
            "safemem" => Layer::SafeMem,
            "purify" => Layer::Purify,
            "memcheck" => Layer::Memcheck,
            "pageguard" => Layer::PageGuard,
            _ => Layer::Null,
        }
    }
}

/// Accumulated span times and counts per layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    self_ns: [u64; Layer::COUNT],
    total_ns: [u64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
}

impl Profile {
    /// Self time of `layer`, milliseconds.
    #[must_use]
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    /// Inclusive time of `layer`'s spans, milliseconds.
    #[must_use]
    pub fn total_ms(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize] as f64 / 1e6
    }

    /// Spans recorded for `layer`.
    #[must_use]
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self time summed over every layer, milliseconds.
    #[must_use]
    pub fn attributed_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Profiler {
    enabled: bool,
    stack: Vec<Frame>,
    profile: Profile,
}

thread_local! {
    static PROFILER: RefCell<Profiler> = RefCell::new(Profiler::default());
}

/// Starts recording spans on this thread, from an empty profile.
pub fn start() {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        p.enabled = true;
        p.stack.clear();
        p.profile = Profile::default();
    });
}

/// Stops recording on this thread and returns what was recorded.
///
/// # Panics
///
/// Panics if a span is still open (a guard outlived the traced pass).
#[must_use]
pub fn stop() -> Profile {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        assert!(p.stack.is_empty(), "a span outlived the traced pass");
        p.enabled = false;
        std::mem::take(&mut p.profile)
    })
}

/// An open span; it closes when dropped. Inert while recording is off.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    open: bool,
}

/// Opens a span of `layer` on this thread.
pub fn span(layer: Layer) -> Span {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        if p.enabled {
            p.stack.push(Frame {
                layer,
                start: Instant::now(),
                child_ns: 0,
            });
        }
        Span { open: p.enabled }
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        PROFILER.with(|p| {
            let mut p = p.borrow_mut();
            let Some(frame) = p.stack.pop() else {
                return;
            };
            let elapsed = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let i = frame.layer as usize;
            p.profile.self_ns[i] += elapsed.saturating_sub(frame.child_ns);
            p.profile.total_ns[i] += elapsed;
            p.profile.calls[i] += 1;
            if let Some(parent) = p.stack.last_mut() {
                parent.child_ns += elapsed;
            }
        });
    }
}

/// A [`MemTool`] that forwards every call to `inner`, timing each hook that
/// does work as a span of `layer`.
pub struct Timed<T: ?Sized> {
    inner: Box<T>,
    layer: Layer,
}

impl<T: ?Sized> Timed<T> {
    /// Wraps `inner`, attributing its hooks to `layer`.
    #[must_use]
    pub fn new(inner: Box<T>, layer: Layer) -> Self {
        Timed { inner, layer }
    }

    /// The wrapped tool.
    #[must_use]
    pub fn into_inner(self) -> Box<T> {
        self.inner
    }
}

impl<T: MemTool + ?Sized> MemTool for Timed<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn heap(&self) -> &Heap {
        self.inner.heap()
    }
    fn malloc(&mut self, os: &mut Os, size: u64, stack: &CallStack) -> u64 {
        let _s = span(self.layer);
        self.inner.malloc(os, size, stack)
    }
    fn calloc(&mut self, os: &mut Os, size: u64, stack: &CallStack) -> u64 {
        let _s = span(self.layer);
        self.inner.calloc(os, size, stack)
    }
    fn free(&mut self, os: &mut Os, addr: u64) {
        let _s = span(self.layer);
        self.inner.free(os, addr);
    }
    fn realloc(&mut self, os: &mut Os, addr: u64, new_size: u64, stack: &CallStack) -> u64 {
        let _s = span(self.layer);
        self.inner.realloc(os, addr, new_size, stack)
    }
    fn read(&mut self, os: &mut Os, addr: u64, buf: &mut [u8]) {
        let _s = span(self.layer);
        self.inner.read(os, addr, buf);
    }
    fn write(&mut self, os: &mut Os, addr: u64, data: &[u8]) {
        let _s = span(self.layer);
        self.inner.write(os, addr, data);
    }
    fn compute(&mut self, os: &mut Os, cycles: u64, mem_accesses: u64) {
        let _s = span(self.layer);
        self.inner.compute(os, cycles, mem_accesses);
    }
    fn finish(&mut self, os: &mut Os) {
        let _s = span(self.layer);
        self.inner.finish(os);
    }
    fn reports(&self) -> Vec<BugReport> {
        let _s = span(self.layer);
        self.inner.reports()
    }
    fn mark_incident(&mut self, kind: IncidentClass) {
        self.inner.mark_incident(kind);
    }
    fn survival(&self) -> Option<SurvivalSummary> {
        self.inner.survival()
    }
    fn sampling(&self) -> Option<SamplingSummary> {
        self.inner.sampling()
    }
}

/// A [`MachineBackend`] over an owned [`Machine`] that times every call
/// doing simulation work. Accessors (clock, cost, controller handles,
/// hierarchy) are forwarded untimed.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Machine,
}

impl TimedBackend {
    /// Wraps `machine`.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        TimedBackend { inner: machine }
    }
}

impl MachineBackend for TimedBackend {
    fn clock(&self) -> &Clock {
        self.inner.clock()
    }
    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }
    fn line_size(&self) -> u64 {
        self.inner.line_size()
    }
    fn controller(&self) -> &EccController {
        self.inner.controller()
    }
    fn controller_mut(&mut self) -> &mut EccController {
        self.inner.controller_mut()
    }
    fn scramble(&self) -> ScrambleScheme {
        self.inner.scramble()
    }
    fn hierarchy(&self) -> &Hierarchy {
        self.inner.hierarchy()
    }
    fn set_prefetch(&mut self, on: bool) {
        self.inner.set_prefetch(on);
    }
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        let _s = span(Layer::Access);
        self.inner.read(addr, buf)
    }
    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), EccFault> {
        let _s = span(Layer::Access);
        self.inner.write(addr, buf)
    }
    fn flush_range(&mut self, addr: u64, len: u64) {
        let _s = span(Layer::Flush);
        self.inner.flush_range(addr, len);
    }
    fn flush_all_caches(&mut self) {
        let _s = span(Layer::Flush);
        self.inner.flush_all_caches();
    }
    fn write_uncached(&mut self, addr: u64, buf: &[u8]) {
        let _s = span(Layer::Uncached);
        self.inner.write_uncached(addr, buf);
    }
    fn write_uncached_precoded(&mut self, addr: u64, data: &[u8; 64], codes: &[u8; 8]) {
        let _s = span(Layer::Uncached);
        self.inner.write_uncached_precoded(addr, data, codes);
    }
    fn read_uncached(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        let _s = span(Layer::Uncached);
        self.inner.read_uncached(addr, buf)
    }
    fn peek(&self, addr: u64, len: usize) -> Vec<u8> {
        let _s = span(Layer::MachineOther);
        self.inner.peek(addr, len)
    }
    fn peek_into(&self, addr: u64, out: &mut [u8]) {
        let _s = span(Layer::MachineOther);
        self.inner.peek_into(addr, out);
    }
    fn compute(&mut self, cycles: u64) {
        let _s = span(Layer::MachineOther);
        self.inner.compute(cycles);
    }
    fn take_faults(&mut self) -> Vec<EccFault> {
        let _s = span(Layer::MachineOther);
        self.inner.take_faults()
    }
    fn scrub_step(&mut self, groups: u64) -> u64 {
        let _s = span(Layer::Scrub);
        self.inner.scrub_step(groups)
    }
    // Downcasts see the wrapped machine, as they would without the wrapper.
    fn as_any(&self) -> &dyn std::any::Any {
        &self.inner
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::black_box(());
        }
    }

    #[test]
    fn self_times_partition_the_outer_span() {
        start();
        {
            let _cell = span(Layer::Cell);
            busy(Duration::from_millis(2));
            {
                let _hook = span(Layer::SafeMem);
                busy(Duration::from_millis(2));
                let _access = span(Layer::Access);
                busy(Duration::from_millis(2));
            }
        }
        let profile = stop();
        let total = profile.total_ms(Layer::Cell);
        assert!(
            (profile.attributed_ms() - total).abs() < 1e-6,
            "{profile:?}"
        );
        assert!(profile.self_ms(Layer::Access) >= 2.0);
        assert!(profile.self_ms(Layer::SafeMem) >= 2.0);
        assert!(profile.total_ms(Layer::SafeMem) >= 4.0);
        assert_eq!(profile.calls(Layer::Cell), 1);
        assert_eq!(profile.calls(Layer::Record), 0);
    }

    #[test]
    fn spans_are_inert_while_recording_is_off() {
        {
            let _s = span(Layer::Cell);
        }
        start();
        let profile = stop();
        assert_eq!(profile, Profile::default());
    }
}
