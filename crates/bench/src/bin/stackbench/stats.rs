//! Order statistics and the pass/fail rules the metrics are defined by.

use std::time::Duration;

/// Latency limit of the open-loop ladder: a rung passes when its tail
/// latency from due time is within this and its queue did not grow.
pub const RUNG_LIMIT: Duration = Duration::from_millis(20);

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses to
/// judge run-to-run spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The tail of a latency sample: the highest percentile, capped at the
/// 99th, that still has at least ten samples beyond it. Returns
/// `(percentile, value)`. With fewer than 1 000 samples the percentile is
/// lower than 99 and the caller must say so; with fewer than 21 there is
/// no tail to speak of and the median is returned.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let p99 = (0.99 * n as f64).ceil() as usize;
    let idx = p99.min(n.saturating_sub(10)).max(n.div_ceil(2)).clamp(1, n) - 1;
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

/// A stationary workload's timed part is cut into this many slices of
/// equal length, and its metrics are read from the `QUIET_KEEP` quietest.
/// The host is shared: for seconds or minutes at a time its neighbours
/// slow every stage of the stack by a tenth to a quarter, never the other
/// way, so the slices they left alone say what the program costs and the
/// others say what the neighbours did.
pub const QUIET_SLICES: usize = 20;
pub const QUIET_KEEP: usize = 5;

/// Sample indices by slice of `[min(at_s), max(at_s)]`, empty slices
/// left out.
fn slices(at_s: &[f64]) -> (f64, Vec<Vec<usize>>) {
    let lo = at_s.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = at_s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / QUIET_SLICES as f64).max(f64::MIN_POSITIVE);
    let mut by_slice = vec![Vec::new(); QUIET_SLICES];
    for (i, t) in at_s.iter().enumerate() {
        by_slice[(((t - lo) / width) as usize).min(QUIET_SLICES - 1)].push(i);
    }
    by_slice.retain(|s| !s.is_empty());
    (width, by_slice)
}

/// The latencies of the `QUIET_KEEP` slices with the lowest medians,
/// ascending. `at_s[i]` places sample `i` in time.
pub fn quiet_latencies(at_s: &[f64], lat_us: &[f64]) -> Vec<f64> {
    let (_, mut by_slice) = slices(at_s);
    let slice_median = |s: &Vec<usize>| median(&s.iter().map(|&i| lat_us[i]).collect::<Vec<_>>());
    by_slice.sort_by(|a, b| slice_median(a).total_cmp(&slice_median(b)));
    sorted(by_slice.iter().take(QUIET_KEEP).flatten().map(|&i| lat_us[i]).collect())
}

/// Completions per second over the `QUIET_KEEP` slices that completed
/// the most.
pub fn quiet_rate(done_s: &[f64]) -> f64 {
    let (width, mut by_slice) = slices(done_s);
    by_slice.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let kept = by_slice.iter().take(QUIET_KEEP);
    let (n, done) = kept.fold((0, 0), |(n, done), s| (n + 1, done + s.len()));
    done as f64 / (n.max(1) as f64 * width)
}

/// Microseconds as a float, every digit kept.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Ascending copy.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Open-loop latency: from the instant the request was *due*, not from
/// when the generator got round to sending it, so a stall in the sender
/// (or a full pipe) is charged to the requests it delayed.
pub fn latency_from_due(due: Duration, completed: Duration) -> Duration {
    completed.saturating_sub(due)
}

/// One rung of the open-loop ladder, after it drained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    /// Tail latency from due time, µs.
    pub tail_us: f64,
    /// Requests sent but not yet completed when the last arrival was due.
    pub backlog: usize,
    pub failed: usize,
}

impl Rung {
    /// A rung holds when its tail is within the limit, its backlog at the
    /// end is no more than the limit's worth of arrivals (the queue is
    /// not growing), and nothing failed: a failed request misses every
    /// latency limit.
    pub fn ok(&self) -> bool {
        self.failed == 0
            && self.tail_us <= us(RUNG_LIMIT)
            && self.backlog as f64 <= RUNG_LIMIT.as_secs_f64() * self.rate
    }
}

/// Highest rate whose rung holds (0 when none does).
pub fn max_rate_ok(rungs: &[Rung]) -> f64 {
    rungs.iter().filter(|r| r.ok()).map(|r| r.rate).fold(0.0, f64::max)
}

/// Metric and workload names: a letter or digit, then up to 63 letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        // 1 000 samples: p99 is the 990th, exactly ten lie beyond it.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(5000)), (99.0, 4950.0));
        // 999 samples: p99 would leave nine beyond, so step down one.
        let (pct, v) = tail(&ramp(999));
        assert_eq!(v, 989.0);
        assert!(pct < 99.0);
        // 40 samples: the 30th is the highest with ten beyond: p75.
        assert_eq!(tail(&ramp(40)), (75.0, 30.0));
        // Too few for any tail: the median, never an index out of range.
        assert_eq!(tail(&ramp(12)), (50.0, 6.0));
        assert_eq!(tail(&ramp(1)), (100.0, 1.0));
        assert_eq!(tail(&[]), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15.0, 30.0, 47.5]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 45.0]), (15.0, 47.5));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(relative_iqr(&ramp(10)), 1.0);
    }

    #[test]
    fn quiet_slices_leave_out_what_the_neighbours_did() {
        // Two seconds of back-to-back requests of 1 ms. The host is three
        // times slower from 0.5 s to 1 s and a tenth slower after 1.5 s.
        let (mut at, mut lat) = (Vec::new(), Vec::new());
        let mut t = 0.0;
        while t < 2.0 {
            let slow = match t {
                t if (0.5..1.0).contains(&t) => 3.0,
                t if t >= 1.5 => 1.1,
                _ => 1.0,
            };
            t += 0.001 * slow;
            at.push(t);
            lat.push(1000.0 * slow);
        }
        let kept = quiet_latencies(&at, &lat);
        assert!(kept.windows(2).all(|w| w[0] <= w[1]), "ascending");
        // A quarter of the run's length, none of it from a slow stretch
        // (but for the sample that straddles a slice's edge).
        assert!((480..=520).contains(&kept.len()), "{}", kept.len());
        assert_eq!(quantile(&kept, 0.99), 1000.0);
        assert!((quiet_rate(&at) - 1000.0).abs() < 10.0, "{}", quiet_rate(&at));
        assert!(at.len() as f64 / 2.0 < 850.0, "the whole run's rate is a sixth lower");
        // Fewer samples than slices: all are kept, nothing panics.
        assert_eq!(quiet_latencies(&[0.0, 1.0], &[5.0, 3.0]), vec![3.0, 5.0]);
        assert_eq!(quiet_latencies(&[], &[]), Vec::<f64>::new());
        assert_eq!(quiet_rate(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn stalled_sender_is_charged_to_the_requests_it_delayed() {
        // Three requests due 1 ms apart; the sender stalls and sends all
        // three at t = 10 ms; each then takes 1 ms. Timed from send they
        // all look like 1 ms; timed from due time the stall shows.
        let ms = Duration::from_millis;
        let due = [ms(0), ms(1), ms(2)];
        let completed = [ms(11), ms(11), ms(11)];
        let lat: Vec<_> = due.iter().zip(completed).map(|(d, c)| latency_from_due(*d, c)).collect();
        assert_eq!(lat, vec![ms(11), ms(10), ms(9)]);
        // A completion can never precede its due time by construction,
        // but clock reads on two threads may cross: saturate, not panic.
        assert_eq!(latency_from_due(ms(5), ms(4)), Duration::ZERO);
    }

    #[test]
    fn rung_holds_only_with_tail_backlog_and_failures_all_in_bounds() {
        let good = Rung { rate: 3000.0, tail_us: 8_000.0, backlog: 12, failed: 0 };
        assert!(good.ok());
        assert!(!Rung { tail_us: 20_001.0, ..good }.ok(), "tail over the limit");
        assert!(Rung { backlog: 60, ..good }.ok(), "20 ms of arrivals at 3 000/s is 60");
        assert!(!Rung { backlog: 61, ..good }.ok(), "a growing queue");
        assert!(!Rung { failed: 1, ..good }.ok(), "a failure misses every limit");
        let ladder = [
            Rung { rate: 1500.0, ..good },
            good,
            Rung { rate: 6000.0, tail_us: 250_000.0, backlog: 900, failed: 0 },
        ];
        assert_eq!(max_rate_ok(&ladder), 3000.0);
        assert_eq!(max_rate_ok(&ladder[2..]), 0.0);
    }

    #[test]
    fn name_syntax() {
        for ok in ["ops_per_s", "cgm.words_per_run", "kernel_uniform", "1a", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "lat µs", "a/b", "a b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
