/**
 * @file
 * The benchmark's own arithmetic: percentiles, the tail rule, the
 * median-over-passes rate, span self time and the metric-name check.
 * Header-only so the unit tests exercise exactly this code.
 */
#ifndef GOLFBENCH_STATS_HPP
#define GOLFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace golfbench {

/** Percentile p (0..100) of v by linear interpolation between closest
 *  ranks (numpy's default). 0 for an empty sample. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** The percentile ladder a tail is chosen from. */
inline const std::vector<double>&
tailLadder()
{
    static const std::vector<double> ladder{50.0, 90.0, 99.0, 99.9};
    return ladder;
}

/**
 * The tail rule: the highest percentile of the ladder, at most `cap`,
 * with at least `minBeyond` samples above it in a sample of size n
 * (p leaves n * (100 - p) / 100 samples beyond it). Returns 0 when
 * even the lowest rung has too few samples.
 */
inline double
tailPercentile(size_t n, double cap, size_t minBeyond = 10)
{
    double best = 0.0;
    for (double p : tailLadder()) {
        if (p > cap)
            break;
        const double beyond =
            static_cast<double>(n) * (100.0 - p) / 100.0;
        if (beyond + 1e-9 >= static_cast<double>(minBeyond))
            best = p;
    }
    return best;
}

/** A tail figure: the value, the percentile it sits at, and the
 *  sample count it was taken from. */
struct Tail
{
    double value = 0.0;
    double pct = 0.0;
    size_t samples = 0;
};

/**
 * Fixed-memory sample store for per-op times: log-spaced buckets
 * 0.1% wide from 1e-3 to 1e9 (µs), percentiles interpolated by rank
 * inside a bucket, so a percentile is within 0.1% of the exact one
 * wherever neighbouring samples are closer than that.
 * Runs of different length keep the same footprint, which keeps the
 * benchmark's own sample storage out of peak RSS.
 */
class LogHistogram
{
  public:
    static constexpr double kMin = 1e-3;
    static constexpr double kGrowth = 1.001;

    LogHistogram() : counts_(bucketOf(1e9) + 2, 0) {}

    void
    add(double v)
    {
        ++counts_[bucketOf(v)];
        ++n_;
    }

    size_t count() const { return n_; }

    /** Percentile p (0..100), 0 when empty. */
    double
    percentile(double p) const
    {
        if (n_ == 0)
            return 0.0;
        const double rank = p / 100.0 * static_cast<double>(n_ - 1);
        double below = 0.0;
        for (size_t b = 0; b < counts_.size(); ++b) {
            const auto c = static_cast<double>(counts_[b]);
            if (c > 0 && rank < below + c) {
                // The bucket's c samples sit at the midpoints of c
                // equal slices of [lo, hi).
                const double lo = lower(b);
                const double hi = lower(b + 1);
                return lo + (hi - lo) * (rank - below + 0.5) / c;
            }
            below += c;
        }
        return lower(counts_.size());
    }

  private:
    static size_t
    bucketOf(double v)
    {
        if (!(v > kMin))
            return 0;
        return 1 + static_cast<size_t>(std::log(v / kMin) /
                                       std::log(kGrowth));
    }
    static double
    lower(size_t b)
    {
        return b == 0 ? 0.0
                      : kMin * std::pow(kGrowth, static_cast<double>(b - 1));
    }

    std::vector<uint64_t> counts_;
    size_t n_ = 0;
};

inline Tail
tailOf(const LogHistogram& h, double cap)
{
    Tail t;
    t.samples = h.count();
    t.pct = tailPercentile(h.count(), cap);
    t.value = t.pct > 0.0 ? h.percentile(t.pct) : 0.0;
    return t;
}

/**
 * Which end of the per-pass figures a run reports. Co-tenants on a
 * shared host slow the program down in phases of a few seconds, by up
 * to ~1.4x; a run's median pass lands in whichever phase happened to
 * cover most of it, so run medians come out bimodal. The fast decile
 * of the passes (the 10th percentile of times, the 90th of rates)
 * reads the uncontended speed whenever a tenth of the run was
 * uncontended, and moves with the program exactly as the median does.
 */
constexpr double kFastDecile = 10.0;

/** One fixed pass of a closed loop: ops completed in wallNs. */
struct Pass
{
    uint64_t ops = 0;
    uint64_t wallNs = 0;
};

/** Percentile p of the per-pass rates (ops per second). */
inline double
passRate(const std::vector<Pass>& passes, double p)
{
    std::vector<double> rates;
    rates.reserve(passes.size());
    for (const Pass& pass : passes) {
        if (pass.wallNs > 0)
            rates.push_back(static_cast<double>(pass.ops) * 1e9 /
                            static_cast<double>(pass.wallNs));
    }
    return percentile(std::move(rates), p);
}

/** Per-op times of a window: every sample, for percentiles over the
 *  whole window, and the median and tail of each pass. */
class Samples
{
  public:
    /** `tailCap` caps the per-pass tail rung (see tailPercentile).
     *  A pass closes only once it holds `minPass` samples; until then
     *  endPass() carries its samples into the next one, so rare events
     *  (a few per pass) still get per-pass medians and tails. */
    explicit Samples(double tailCap = 99.0, size_t minPass = 1)
        : tailCap_(tailCap), minPass_(minPass)
    {
    }

    void
    add(double v)
    {
        all_.add(v);
        pass_.push_back(v);
    }

    /** Close the current pass, recording its median and its tail. */
    void
    endPass()
    {
        if (pass_.empty() || pass_.size() < minPass_)
            return;
        passMedians_.push_back(median(pass_));
        const double pct = tailPercentile(pass_.size(), tailCap_);
        passTails_.push_back(Tail{percentile(pass_, pct), pct, pass_.size()});
        pass_.clear();
    }

    const LogHistogram& all() const { return all_; }
    /** Percentile p of the per-pass medians. */
    double passMedian(double p) const { return percentile(passMedians_, p); }

    /** Percentile p of the per-pass tails, when every pass had the
     *  same tail rung above the median; otherwise (passes too small
     *  for a tail of their own) the tail of the whole window. */
    Tail
    tail(double p) const
    {
        const double rung = passTails_.empty() ? 0.0 : passTails_[0].pct;
        std::vector<double> values;
        for (const Tail& t : passTails_) {
            if (t.pct != rung)
                return tailOf(all_, tailCap_);
            values.push_back(t.value);
        }
        if (rung <= 50.0)
            return tailOf(all_, tailCap_);
        return Tail{percentile(std::move(values), p), rung,
                    passTails_[0].samples};
    }

  private:
    double tailCap_;
    size_t minPass_;
    LogHistogram all_;
    std::vector<double> pass_;
    std::vector<double> passMedians_;
    std::vector<Tail> passTails_;
};

/**
 * Self time of a span [start, end): its duration minus the part of it
 * covered by the union of its children's intervals (each clipped to
 * the parent, overlaps counted once).
 */
inline uint64_t
selfTime(uint64_t start, uint64_t end,
         std::vector<std::pair<uint64_t, uint64_t>> children)
{
    if (end <= start)
        return 0;
    std::sort(children.begin(), children.end());
    uint64_t covered = 0;
    uint64_t curLo = 0;
    uint64_t curHi = 0;
    bool open = false;
    for (auto [lo, hi] : children) {
        lo = std::max(lo, start);
        hi = std::min(hi, end);
        if (hi <= lo)
            continue;
        if (open && lo <= curHi) {
            curHi = std::max(curHi, hi);
            continue;
        }
        if (open)
            covered += curHi - curLo;
        curLo = lo;
        curHi = hi;
        open = true;
    }
    if (open)
        covered += curHi - curLo;
    return (end - start) - covered;
}

/** Metric names use only [A-Za-z0-9_.-], start with a letter or a
 *  digit, and are at most 64 characters long. */
inline bool
validMetricName(const std::string& name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    for (char c : name) {
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

/** splitmix64: derives independent per-op seeds from one workload
 *  seed. */
inline uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace golfbench

#endif // GOLFBENCH_STATS_HPP
