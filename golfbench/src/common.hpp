/**
 * @file
 * What the three workloads share: run options, the result record,
 * the host fingerprint, and the closed loop that turns a
 * workload's set-up and pass functions into end-to-end metrics.
 */
#ifndef GOLFBENCH_COMMON_HPP
#define GOLFBENCH_COMMON_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "golf/collector.hpp"
#include "gc/memstats.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace golf::rt { class Runtime; }

namespace golfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Commit the sources came from ("none" outside a git checkout). */
    std::string gitSha = "none";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Run-level checks beyond per-op verification (final leak
     *  accounting, thread bound). */
    bool checksHeld = true;
    std::vector<std::string> problems;
    std::vector<Metric> metrics;
    /** Free-form facts for the detail line (already JSON values). */
    std::map<std::string, std::string> detail;
    int gcWorkers = 0;
    /** Thread high-water mark of the process during the run. */
    int threadsMax = 0;

    void
    fail(const std::string& why)
    {
        ++failed;
        if (problems.size() < 20)
            problems.push_back(why);
    }
    void
    checkFailed(const std::string& why)
    {
        checksHeld = false;
        if (problems.size() < 20)
            problems.push_back(why);
    }
};

/// @{ Host (host.cpp).
int hostProcs();
/** min(4, nproc): the pinned mark-worker count. */
int pinnedGcWorkers();
/** A fixed integer kernel, timed; median of several runs in µs. */
double hostProbeUs();
/** VmHWM of this process in MB. */
double peakRssMb();
/** Current thread count of this process (/proc/self/status). */
int threadCount();
std::string compilerName();
std::string buildType();
/// @}

/**
 * Moves the calling thread round robin over the CPUs it may run on, one
 * CPU per next(); the destructor gives it back its original set. On a
 * shared host one vCPU can run ~1.5x slower than the others for
 * minutes, and an unpinned single-threaded loop stays on whichever vCPU
 * it started on, so a whole run came out slow. Rotating spreads every
 * run over all the vCPUs, and the fast end of its passes reads the
 * ones not slowed. Only for single-threaded workloads: threads created
 * while pinned inherit the one CPU.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void next();

  private:
    std::vector<int> cpus_;
    size_t at_ = 0;
};

/** Tracks the thread high-water mark across samples. */
class ThreadWatch
{
  public:
    void sample();
    int max() const { return max_; }

  private:
    int max_ = 0;
};

/** Raw per-layer observations, gathered during traced passes and
 *  turned into the per-layer metric table by layerMetrics(). */
struct LayerStats
{
    uint64_t ops = 0;
    uint64_t steps = 0;
    uint64_t spawned = 0;
    double flightDropped = 0.0;
    std::vector<golf::detect::CycleStats> cycles;
    golf::gc::PoolStats poolDelta;
    double spanMb = 0.0;
    /** Runtimes built per op (1 on corpus, set-ups per op on heap
     *  and service). */
    double runtimesPerOp = 0.0;
    double detectHit = 0.0;
    double detectExpected = 0.0;
    /** Op time with obs on and with obs off, for obs.cost_share. */
    double obsOnOpNs = 0.0;
    double obsOffOpNs = 0.0;
    /** Traced and untraced op p50, for trace.overhead. */
    double tracedP50 = 0.0;
    double untracedP50 = 0.0;
};

/** Accumulate the pool counters that moved between two snapshots. */
void addPoolDelta(golf::gc::PoolStats& acc,
                  const golf::gc::PoolStats& before,
                  const golf::gc::PoolStats& after);

/** Value of an obs counter or gauge, 0 when obs is off or absent. */
double obsValue(golf::rt::Runtime& rt, const std::string& name);

/** The per-layer metric table (every name, on every workload). */
std::vector<Metric> layerMetrics(const LayerStats& ls,
                                 const Tracer& tracer);

/** Samples and passes of the measured window of one run. */
struct Window
{
    /** The caps bound the tail rungs of op times and of pauses;
     *  `minPausePass` is the pauses' minimum pass (Samples); `fastPct`
     *  is the fast end the metrics read from the per-pass figures and
     *  the set-ups (see kFastDecile). */
    Window(double opTailCap, double pauseTailCap, size_t minPausePass = 1,
           double fastPct = kFastDecile)
        : fastPct(fastPct), opUs(opTailCap), pauseUs(pauseTailCap, minPausePass)
    {
    }

    double fastPct;
    Samples opUs;
    Samples pauseUs;
    std::vector<Pass> passes;
    Samples tracedOpUs;
};

/** The end-to-end metric table. */
std::vector<Metric> endToEndMetrics(const Window& w,
                                    const std::vector<double>& setupS,
                                    Outcome& out);

/**
 * The closed loop every workload runs: set up once, then run fixed
 * passes until `seconds` have elapsed, setting up again (replacing the
 * workload's state) after every `passesPerSetup` passes. Spread over
 * the run, the set-ups sample the same host phases as the passes
 * rather than one moment of it, so their fast decile (the reported
 * set-up time) is as steady as the passes' figures; and a state's
 * lifetime is a fixed amount of work. In a traced run odd
 * passes are traced and even ones are not, so trace.overhead compares
 * interleaved passes.
 */
struct LoopHooks
{
    std::function<void()> setup;
    /** Run one pass; `traced` says whether the tracer records it. */
    std::function<Pass(bool traced)> pass;
};

void closedLoop(const Options& o, int passesPerSetup, const LoopHooks& hooks,
                Tracer& tracer, ThreadWatch& threads,
                std::vector<double>& setupS, Window& w);

/** Write the traced run's spans to
 *  .bench_build/traces/<workload>-seed<N>.json; returns the path
 *  written, or an empty string. */
std::string writeTrace(const Options& o, const Tracer& tracer);

/// @{ The workloads (corpus.cpp, heap.cpp, service.cpp).
Outcome runCorpus(const Options& o);
Outcome runHeap(const Options& o);
Outcome runService(const Options& o);
/// @}

/** Run one workload and print the host line, the detail line and the
 *  result line. Returns the process exit code. */
int runAndReport(const Options& o);

} // namespace golfbench

#endif // GOLFBENCH_COMMON_HPP
