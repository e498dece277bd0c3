/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are opened and closed by the benchmark's own code around its
 * calls into each layer (runPatternOnce, the Runtime constructor and
 * destructor, Runtime::step, batches of make<T>()); nothing inside the
 * library is instrumented. A span records its name, start, end, parent
 * span and op id. Spans stay in memory and are written out when the
 * run ends. When tracing is off every open/close is one branch.
 */
#ifndef GOLFBENCH_TRACE_HPP
#define GOLFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace golfbench {

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Span names: one per layer boundary the benchmark crosses. */
enum class SpanKind : uint8_t
{
    Op,            ///< One benchmark op (the closed loop's unit).
    RunPattern,    ///< microbench::runPatternOnce.
    RuntimeNew,    ///< rt::Runtime constructor.
    RuntimeDelete, ///< rt::Runtime destructor.
    Step,          ///< rt::Runtime::step.
    MakeBatch,     ///< A batch of make<T>() calls.
};

const char* spanName(SpanKind k);

struct Span
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t op = 0;
    int32_t parent = -1;
    SpanKind kind = SpanKind::Op;
    /** Extra per-span count (make batch: objects allocated; step:
     *  1 when the step ran a collection). */
    uint32_t count = 0;
};

class Tracer
{
  public:
    /** At most `capacity` spans are kept; later ones are counted in
     *  dropped() and not recorded. */
    explicit Tracer(size_t capacity = 1u << 21) : capacity_(capacity) {}

    /** Recording on/off (toggled per pass in the traced run). */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one. A top-level span is
     *  recorded only when `sample` holds; a nested span only when its
     *  parent is recorded. Returns the span index, or -1. */
    int32_t
    open(SpanKind kind, uint64_t op, bool sample = true)
    {
        if (!enabled_)
            return -1;
        return openSlow(kind, op, sample);
    }

    void
    close(int32_t idx, uint32_t count = 0)
    {
        if (!enabled_)
            return;
        closeSlow(idx, count);
    }

    const std::vector<Span>& spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

    /** Self time of every span (duration minus its children). */
    std::vector<uint64_t> selfTimes() const;

    /** Write the spans as a Chrome trace-event JSON file. */
    bool writeChromeJson(const std::string& path) const;

  private:
    int32_t openSlow(SpanKind kind, uint64_t op, bool sample);
    void closeSlow(int32_t idx, uint32_t count);

    bool enabled_ = false;
    size_t capacity_;
    uint64_t dropped_ = 0;
    std::vector<Span> spans_;
    /** Open spans, innermost last; -1 marks an unrecorded one so its
     *  children are skipped too. */
    std::vector<int32_t> stack_;
};

/** RAII span. */
class SpanGuard
{
  public:
    SpanGuard(Tracer& t, SpanKind kind, uint64_t op, bool sample = true)
        : t_(t), idx_(t.open(kind, op, sample))
    {
    }
    ~SpanGuard() { t_.close(idx_, count_); }
    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

    void setCount(uint32_t c) { count_ = c; }

  private:
    Tracer& t_;
    int32_t idx_;
    uint32_t count_ = 0;
};

} // namespace golfbench

#endif // GOLFBENCH_TRACE_HPP
