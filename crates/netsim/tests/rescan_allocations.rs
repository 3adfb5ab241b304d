//! Weekly rescans of booters' reflector lists allocate nothing once every
//! list exists: at the default scan effort each rescan finds the whole
//! fleet or, for an avoiding booter, no honeypot, and the engine shares
//! one list of each (DESIGN.md §5k).

use booters_netsim::{AttackCommand, Engine, EngineConfig, UdpProtocol, VictimAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each allocation on the calling
/// thread, so the harness's other test threads never add to a count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation while this thread's locals are torn down
    // goes uncounted rather than panicking inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const WEEK: u64 = 7 * 86_400;

/// Booter `i`'s command in week `week`: every fifth booter avoids the
/// honeypots, and each booter keeps one protocol.
fn command(i: u32, week: u64) -> AttackCommand {
    AttackCommand {
        time: week * WEEK + u64::from(i) * 60,
        victim: VictimAddr::from_octets(25, 3, i as u8, 9),
        protocol: UdpProtocol::ALL[i as usize % UdpProtocol::ALL.len()],
        duration_secs: 300,
        packets_per_second: 40_000,
        booter: i,
        avoids_honeypots: i.is_multiple_of(5),
    }
}

#[test]
fn weekly_rescans_allocate_nothing_once_every_list_exists() {
    const BOOTERS: u32 = 50;
    let mut engine = Engine::new(EngineConfig::default());
    for i in 0..BOOTERS {
        engine.would_observe(&command(i, 0));
    }
    // Bit `week` of `seen[i]`: booter `i` was observed that week.
    let mut seen = [0u16; BOOTERS as usize];
    const EVERY_WEEK: u16 = 0b111_1111_1110;
    let before = allocations();
    for week in 1..=10u64 {
        for i in 0..BOOTERS {
            // A week after the last probe, so every probe rescans.
            if engine.would_observe(&command(i, week)) {
                seen[i as usize] |= 1 << week;
            }
        }
    }
    let made = allocations() - before;
    assert_eq!(made, 0, "10 weekly rescan rounds made {made} allocations");
    // The probes did rescan: some avoiding booter's list leaked a
    // honeypot in one week and not in another.
    let avoiders_flipped = (0..BOOTERS)
        .filter(|i| i.is_multiple_of(5))
        .filter(|&i| !matches!(seen[i as usize], 0 | EVERY_WEEK))
        .count();
    assert!(avoiders_flipped > 0, "{seen:?}");
    // Non-avoiding booters keep the whole fleet every week.
    let mut covered = (0..BOOTERS).filter(|i| !i.is_multiple_of(5));
    assert!(covered.all(|i| seen[i as usize] == EVERY_WEEK));
}
