//! Minimal offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of the criterion API its benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkGroup::sample_size`], [`Bencher::iter`], [`BenchmarkId`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model: one calibration call picks an iteration count
//! aiming at ~40 ms per sample (slow benchmarks degrade gracefully to a
//! single iteration and fewer samples), then the configured number of
//! samples is timed. The report gives the per-iteration time of the
//! *median* sample, the interquartile range (q3 − q1, nearest rank) of
//! the per-iteration sample times, and the sample count.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of the standard opaque-value hint, like criterion's.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Entry point; collects groups of benchmarks.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }
}

/// Identifier for a single benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A `name/parameter` id.
    pub fn new(name: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark over a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            max_samples: self.sample_size,
            samples: Vec::new(),
            iters_per_sample: 1,
        };
        routine(&mut b, input);
        b.report(&self.name, &id.id);
        self
    }

    /// Runs one benchmark with no input.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.bench_with_input(id, &(), |b, ()| routine(b))
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Times closures handed to it by a benchmark routine.
pub struct Bencher {
    max_samples: usize,
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `routine`, choosing iteration and sample counts from one
    /// calibration call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));

        let target = Duration::from_millis(40);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let samples = if once > Duration::from_secs(1) {
            1
        } else if once > Duration::from_millis(100) {
            2.min(self.max_samples)
        } else {
            self.max_samples.min(10)
        };

        self.iters_per_sample = iters;
        self.samples.clear();
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push(t.elapsed());
        }
    }

    /// Median and interquartile range of the per-iteration sample
    /// times, in seconds; `None` before any sample is recorded.
    fn median_iqr(&self) -> Option<(f64, f64)> {
        let mut per_iter: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.as_secs_f64() / self.iters_per_sample as f64)
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let n = per_iter.len();
        (n > 0).then(|| (per_iter[n / 2], per_iter[3 * n / 4] - per_iter[n / 4]))
    }

    fn report(&self, group: &str, id: &str) {
        let Some((median, iqr)) = self.median_iqr() else {
            println!("{group}/{id}: no samples recorded");
            return;
        };
        println!(
            "{group}/{id}: {} per iter median, IQR {} ({} iters x {} samples)",
            format_seconds(median),
            format_seconds(iqr),
            self.iters_per_sample,
            self.samples.len()
        );
    }
}

fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Declares a function running the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut calls = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter("inc"), &5u64, |b, &x| {
            b.iter(|| {
                calls += 1;
                x + 1
            })
        });
        g.finish();
        assert!(calls > 0);
    }

    #[test]
    fn median_and_iqr_use_nearest_rank() {
        let b = Bencher {
            max_samples: 5,
            samples: [9, 1, 5, 3, 7].map(Duration::from_millis).to_vec(),
            iters_per_sample: 1,
        };
        let (median, iqr) = b.median_iqr().unwrap();
        assert!((median - 5e-3).abs() < 1e-12);
        assert!((iqr - (7e-3 - 3e-3)).abs() < 1e-12);
        let empty = Bencher {
            max_samples: 5,
            samples: Vec::new(),
            iters_per_sample: 1,
        };
        assert!(empty.median_iqr().is_none());
    }

    #[test]
    fn format_spans_units() {
        assert!(format_seconds(2.0).ends_with(" s"));
        assert!(format_seconds(2e-3).ends_with(" ms"));
        assert!(format_seconds(2e-6).ends_with(" us"));
        assert!(format_seconds(2e-9).ends_with(" ns"));
    }
}
