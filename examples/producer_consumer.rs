//! Condition variables over the DSM: a bounded buffer with producers and
//! consumers on simulated non-coherent cores.
//!
//! Samhita offers "mutual exclusion locks, condition variable signaling and
//! barrier synchronization" — this example exercises the condvar path
//! (manager-mediated wait queues + lock re-grant, with RegC consistency at
//! every wait).
//!
//! ```text
//! cargo run --release --example producer_consumer \
//!     [--trace out.json] [--faults seed] [--metrics-out out.json]
//! ```

use samhita_bench::{run_summary, ExampleArgs};
use samhita_repro::core::{Samhita, SamhitaConfig};

const CAPACITY: u64 = 8;
const ITEMS_PER_PRODUCER: u64 = 50;
const PRODUCERS: u64 = 2;
const CONSUMERS: u64 = 2;

fn main() {
    let args = ExampleArgs::parse();
    let cfg =
        SamhitaConfig { tracing: args.wants_trace(), ..args.base_config(SamhitaConfig::default()) };
    let system = Samhita::new(cfg.clone());

    // Shared state: ring buffer + head/tail/done counters, all lock-protected.
    let buf = system.alloc_global(CAPACITY * 8);
    let head = system.alloc_global(8); // total dequeued
    let tail = system.alloc_global(8); // total enqueued
    let done = system.alloc_global(8); // producers finished
    let sum = system.alloc_global(8); // checksum of consumed items

    let lock = system.create_mutex();
    let not_full = system.create_cond();
    let not_empty = system.create_cond();

    let total_items = PRODUCERS * ITEMS_PER_PRODUCER;
    let threads = (PRODUCERS + CONSUMERS) as u32;

    let report = system.run(threads, |ctx| {
        let tid = ctx.tid() as u64;
        if tid < PRODUCERS {
            // Let the consumers reach their empty-buffer wait first, so the
            // signal/wake path is actually exercised (wall-clock sleep: the
            // virtual clock is unaffected).
            std::thread::sleep(std::time::Duration::from_millis(25));
            // Producer: push `ITEMS_PER_PRODUCER` numbered items.
            for i in 0..ITEMS_PER_PRODUCER {
                let item = tid * ITEMS_PER_PRODUCER + i + 1;
                ctx.lock(lock);
                while ctx.read_u64(tail) - ctx.read_u64(head) == CAPACITY {
                    ctx.cond_wait(not_full, lock);
                }
                let t = ctx.read_u64(tail);
                ctx.write_u64(buf + (t % CAPACITY) * 8, item);
                ctx.write_u64(tail, t + 1);
                ctx.cond_signal(not_empty);
                ctx.unlock(lock);
            }
            ctx.lock(lock);
            let d = ctx.read_u64(done) + 1;
            ctx.write_u64(done, d);
            if d == PRODUCERS {
                // Wake any consumer blocked on an empty buffer at the end.
                ctx.cond_broadcast(not_empty);
            }
            ctx.unlock(lock);
        } else {
            // Consumer: pop until all items are accounted for.
            loop {
                ctx.lock(lock);
                loop {
                    let (h, t) = (ctx.read_u64(head), ctx.read_u64(tail));
                    if h < t {
                        break;
                    }
                    if ctx.read_u64(done) == PRODUCERS {
                        ctx.unlock(lock);
                        return;
                    }
                    ctx.cond_wait(not_empty, lock);
                }
                let h = ctx.read_u64(head);
                let item = ctx.read_u64(buf + (h % CAPACITY) * 8);
                ctx.write_u64(head, h + 1);
                let s = ctx.read_u64(sum);
                ctx.write_u64(sum, s + item);
                ctx.cond_signal(not_full);
                ctx.unlock(lock);
            }
        }
    });

    let mut bytes = [0u8; 8];
    system.read_global(sum, &mut bytes);
    let consumed_sum = u64::from_le_bytes(bytes);
    let expected: u64 = (1..=total_items).sum();
    assert_eq!(consumed_sum, expected, "every produced item consumed exactly once");

    println!(
        "producer/consumer over the DSM: {PRODUCERS} producers x {ITEMS_PER_PRODUCER} items, \
         {CONSUMERS} consumers, buffer capacity {CAPACITY}"
    );
    println!("  checksum {consumed_sum} == expected {expected} ✓");
    println!("  virtual makespan : {}", report.makespan);
    println!("  mean sync time   : {}", report.mean_sync());
    println!("\nrun summary:\n{}", run_summary(&report));

    if args.wants_trace() {
        let params = format!(
            "producers={PRODUCERS} consumers={CONSUMERS} items={ITEMS_PER_PRODUCER} \
             capacity={CAPACITY}"
        );
        let trace = system.take_trace();
        args.write_outputs("producer_consumer", &params, &cfg, threads, &report, trace);
    }

    let stats = system.shutdown();
    println!("  condvar waits    : {}", stats.manager.cond_waits);
    println!("  condvar signals  : {}", stats.manager.cond_signals);
}
