//! A background sampler for the traced run: the deepest shard queue seen,
//! and every shard worker thread the process ran.
//!
//! Shard workers of `csp_serve::ShardedEngine` are named `csp-shard-<i>`,
//! so counting the distinct threads by that name that were alive during
//! the traced passes shows whether a workload reached the serving engine
//! at all, through any path: the offline workloads must show none.

use csp_obs::Gauge;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const PERIOD: Duration = Duration::from_millis(2);
const SHARD_THREAD: &str = "csp-shard-";

#[derive(Default)]
struct Shared {
    on: AtomicBool,
    quit: AtomicBool,
    gauges: Mutex<Vec<Arc<Gauge>>>,
    depth_max: AtomicI64,
    shard_threads: Mutex<BTreeSet<u64>>,
}

/// Samples while switched on; stops when dropped.
pub struct Sampler {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts the sampling thread, switched off.
    pub fn start() -> Sampler {
        let shared = Arc::new(Shared::default());
        let worker = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            while !worker.quit.load(Ordering::Relaxed) {
                if worker.on.load(Ordering::Relaxed) {
                    worker.sample();
                }
                std::thread::sleep(PERIOD);
            }
        });
        Sampler {
            shared,
            thread: Some(thread),
        }
    }

    /// Switches sampling on or off.
    pub fn set_on(&self, on: bool) {
        self.shared.on.store(on, Ordering::SeqCst);
        if on {
            self.shared.sample();
        }
    }

    /// The queue-depth gauges to watch from now on.
    pub fn watch(&self, gauges: Vec<Arc<Gauge>>) {
        if let Ok(mut g) = self.shared.gauges.lock() {
            *g = gauges;
        }
    }

    /// The deepest queue seen.
    pub fn depth_max(&self) -> i64 {
        self.shared.depth_max.load(Ordering::SeqCst)
    }

    /// Distinct shard worker threads seen.
    pub fn shard_threads(&self) -> usize {
        self.shared.shard_threads.lock().map_or(0, |s| s.len())
    }
}

impl Shared {
    fn sample(&self) {
        if let Ok(gauges) = self.gauges.lock() {
            for g in gauges.iter() {
                self.depth_max.fetch_max(g.get(), Ordering::Relaxed);
            }
        }
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in tasks.flatten() {
            let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) else {
                continue;
            };
            if comm.starts_with(SHARD_THREAD) {
                if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
                    if let Ok(mut seen) = self.shard_threads.lock() {
                        seen.insert(tid);
                    }
                }
            }
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shared.quit.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The queue-depth gauges of an engine's shards.
pub fn queue_gauges(engine: &csp_serve::ShardedEngine) -> Vec<Arc<Gauge>> {
    (0..engine.shard_count())
        .map(|s| {
            engine.registry().gauge(
                "csp_shard_queue_depth",
                "Messages waiting in the shard inbox.",
                &[("shard", s.to_string().as_str())],
            )
        })
        .collect()
}
