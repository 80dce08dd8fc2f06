//! Counting-allocator smoke test: the steady-state cycle kernel must run
//! allocation-free once warm.
//!
//! The data-oriented kernel (interned packet descriptors, SoA VC rings,
//! slab-indexed side tables) claims zero heap traffic per cycle after the
//! transients settle: every buffer is fixed-capacity, the descriptor arena
//! recycles handles through a free list, and the event calendar reuses its
//! ring slots. This test installs a counting global allocator, warms the
//! kernel up, then arms the counter and asserts that a window of
//! steady-state cycles performs no allocations — under every scheme, since
//! the scheme hooks run inside the cycle.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::ni::ConsumePolicy;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{build_system, SchemeKind};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

/// Forwards to the system allocator, counting allocations (and growing
/// reallocations) while armed. Deallocations are never counted: freeing
/// during the window is harmless — it is *acquiring* memory per cycle
/// that the kernel promises not to do.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_CYCLES: u64 = 4_000;
const MEASURE_CYCLES: u64 = 2_000;

/// Returns the allocations counted over the armed steady-state window.
fn measure(kind: &SchemeKind) -> u64 {
    let spec = ChipletSystemSpec::baseline();
    let built = build_system(
        &spec,
        NocConfig::default(),
        kind,
        0,
        2022,
        ConsumePolicy::Immediate { latency: 1 },
    );
    let mut sys = built.sys;
    // Modest uniform-random load: enough in-flight traffic to keep every
    // pipeline stage busy, low enough that the network reaches a steady
    // state instead of accumulating an unbounded backlog.
    let mut traffic = SyntheticTraffic::new(sys.net().topo(), Pattern::UniformRandom, 0.03, 2022);
    for _ in 0..WARMUP_CYCLES {
        traffic.tick(&mut sys);
        sys.step();
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..MEASURE_CYCLES {
        traffic.tick(&mut sys);
        sys.step();
    }
    ARMED.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::SeqCst);
    // Keep the run honest: the window must have carried real traffic.
    assert!(
        sys.net().stats().packets_ejected > 0,
        "measurement window saw no traffic"
    );
    count
}

/// The only test in this binary: a second one would share the global
/// counters with it.
#[test]
fn steady_state_cycles_are_allocation_free() {
    for kind in [
        SchemeKind::None,
        SchemeKind::Upp(UppConfig::default()),
        SchemeKind::RemoteControl,
        SchemeKind::Composable,
    ] {
        let allocs = measure(&kind);
        assert_eq!(
            allocs,
            0,
            "scheme {}: heap allocations over {MEASURE_CYCLES} steady-state cycles",
            kind.label()
        );
    }
}
