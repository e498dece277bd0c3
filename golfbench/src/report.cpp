#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"

namespace golfbench {

void
addPoolDelta(golf::gc::PoolStats& acc, const golf::gc::PoolStats& before,
             const golf::gc::PoolStats& after)
{
    acc.slotAllocs += after.slotAllocs - before.slotAllocs;
    acc.slotsRecycled += after.slotsRecycled - before.slotsRecycled;
    acc.lazySweptSpans += after.lazySweptSpans - before.lazySweptSpans;
    acc.largeAllocs += after.largeAllocs - before.largeAllocs;
}

double
obsValue(golf::rt::Runtime& rt, const std::string& name)
{
    golf::obs::Obs* o = rt.obs();
    if (!o)
        return 0.0;
    if (const auto* c = o->registry().findCounter(name))
        return static_cast<double>(c->value());
    if (const auto* g = o->registry().findGauge(name))
        return g->value();
    return 0.0;
}

namespace {

template <typename F>
double
cycleMedian(const std::vector<golf::detect::CycleStats>& cycles, F f)
{
    std::vector<double> v;
    v.reserve(cycles.size());
    for (const auto& cs : cycles)
        v.push_back(f(cs));
    return median(std::move(v));
}

double
perOp(double total, uint64_t ops)
{
    return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

} // namespace

std::vector<Metric>
layerMetrics(const LayerStats& ls, const Tracer& tracer)
{
    using golf::detect::CycleStats;
    const std::vector<uint64_t> self = tracer.selfTimes();
    std::vector<double> stepNs;
    std::vector<double> allocNs;
    std::vector<double> newNs;
    std::vector<double> deleteNs;
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
        const Span& s = tracer.spans()[i];
        const auto dur = static_cast<double>(s.endNs - s.startNs);
        switch (s.kind) {
          case SpanKind::Step:
            if (s.count == 0)
                stepNs.push_back(static_cast<double>(self[i]));
            break;
          case SpanKind::MakeBatch:
            if (s.count > 0)
                allocNs.push_back(dur / s.count);
            break;
          case SpanKind::RuntimeNew: newNs.push_back(dur); break;
          case SpanKind::RuntimeDelete: deleteNs.push_back(dur); break;
          default: break;
        }
    }
    const auto& cy = ls.cycles;
    const double ops = static_cast<double>(ls.ops);
    auto m = [](const char* name, double v, const char* unit) {
        return Metric{name, v, unit};
    };
    return {
        m("runtime.new_us",
          (median(newNs) + median(deleteNs)) / 1000.0 * ls.runtimesPerOp,
          "us"),
        m("runtime.step_ns", median(stepNs), "ns"),
        m("runtime.steps_per_op", perOp(static_cast<double>(ls.steps),
                                        ls.ops), "count"),
        m("sched.spawned_per_op", perOp(static_cast<double>(ls.spawned),
                                        ls.ops), "count"),
        m("gc.alloc_ns", median(allocNs), "ns"),
        m("gc.cycles_per_op", ops == 0 ? 0.0 : cy.size() / ops, "count"),
        m("gc.mark_us", cycleMedian(cy, [](const CycleStats& c) {
              return c.markWallNs / 1000.0;
          }), "us"),
        m("gc.mark_cpu_us", cycleMedian(cy, [](const CycleStats& c) {
              return c.markCpuNs / 1000.0;
          }), "us"),
        m("gc.mark_parallelism", cycleMedian(cy, [](const CycleStats& c) {
              return c.markWallNs == 0
                  ? 0.0
                  : static_cast<double>(c.markCpuNs) / c.markWallNs;
          }), "ratio"),
        m("gc.mark_objects_per_s", cycleMedian(cy, [](const CycleStats& c) {
              return c.markWallNs == 0
                  ? 0.0
                  : c.objectsMarked * 1e9 / c.markWallNs;
          }), "1/s"),
        m("gc.parallel_jobs", cycleMedian(cy, [](const CycleStats& c) {
              return static_cast<double>(c.parallelMarkJobs);
          }), "count"),
        m("gc.post_mark_us", cycleMedian(cy, [](const CycleStats& c) {
              return (static_cast<double>(c.pauseWallNs) -
                      static_cast<double>(c.markWallNs)) / 1000.0;
          }), "us"),
        m("gc.freed_per_cycle", cycleMedian(cy, [](const CycleStats& c) {
              return static_cast<double>(c.freedObjects);
          }), "count"),
        m("gc.pool.slot_allocs_per_op",
          perOp(static_cast<double>(ls.poolDelta.slotAllocs), ls.ops),
          "count"),
        m("gc.pool.slots_recycled_per_op",
          perOp(static_cast<double>(ls.poolDelta.slotsRecycled), ls.ops),
          "count"),
        m("gc.pool.lazy_swept_spans_per_op",
          perOp(static_cast<double>(ls.poolDelta.lazySweptSpans), ls.ops),
          "count"),
        m("gc.pool.large_allocs_per_op",
          perOp(static_cast<double>(ls.poolDelta.largeAllocs), ls.ops),
          "count"),
        m("gc.pool.span_mb", ls.spanMb, "MB"),
        m("golf.mark_iterations", cycleMedian(cy, [](const CycleStats& c) {
              return static_cast<double>(c.markIterations);
          }), "count"),
        m("golf.detect_checks", cycleMedian(cy, [](const CycleStats& c) {
              return static_cast<double>(c.detectChecks);
          }), "count"),
        m("golf.verdicts_per_cycle", cycleMedian(cy, [](const CycleStats& c) {
              return static_cast<double>(c.deadlocksFound);
          }), "count"),
        m("golf.reclaimed_per_cycle", cycleMedian(cy, [](const CycleStats& c) {
              return static_cast<double>(c.reclaimed);
          }), "count"),
        m("golf.detect_ratio",
          ls.detectExpected == 0 ? 0.0 : ls.detectHit / ls.detectExpected,
          "ratio"),
        m("obs.cost_share",
          ls.obsOnOpNs == 0 ? 0.0 : 1.0 - ls.obsOffOpNs / ls.obsOnOpNs,
          "share"),
        m("obs.flight_dropped_per_op", perOp(ls.flightDropped, ls.ops),
          "count"),
        m("trace.overhead",
          ls.untracedP50 == 0 ? 0.0 : ls.tracedP50 / ls.untracedP50,
          "ratio"),
    };
}

std::vector<Metric>
endToEndMetrics(const Window& w, const std::vector<double>& setupS,
                Outcome& out)
{
    const Tail opTail = w.opUs.tail(w.fastPct);
    const Tail pauseTail = w.pauseUs.tail(w.fastPct);
    auto tailNote = [](const Tail& t, const Samples& s) {
        std::ostringstream os;
        os << "{\"percentile\":" << t.pct << ",\"samples\":" << t.samples
           << ",\"per_pass\":"
           << (t.samples < s.all().count() ? "true" : "false") << "}";
        return os.str();
    };
    out.detail["op_tail"] = tailNote(opTail, w.opUs);
    out.detail["pause_tail"] = tailNote(pauseTail, w.pauseUs);
    out.detail["passes"] = std::to_string(w.passes.size());
    std::ostringstream setups;
    for (double s : setupS)
        setups << (setups.tellp() == 0 ? "[" : ",") << s * 1e3;
    out.detail["setup_ms"] = setups.str() + "]";
    return {
        {"ops_per_s", passRate(w.passes, 100.0 - w.fastPct), "1/s"},
        {"op_p50_us", w.opUs.passMedian(w.fastPct), "us"},
        {"op_tail_us", opTail.value, "us"},
        {"pause_p50_us", w.pauseUs.passMedian(w.fastPct), "us"},
        {"pause_tail_us", pauseTail.value, "us"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", percentile(setupS, w.fastPct), "s"},
    };
}

void
closedLoop(const Options& o, int passesPerSetup, const LoopHooks& hooks,
           Tracer& tracer, ThreadWatch& threads,
           std::vector<double>& setupS, Window& w)
{
    auto setup = [&] {
        tracer.setEnabled(o.trace);
        const uint64_t t0 = nowNs();
        hooks.setup();
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        tracer.setEnabled(false);
        threads.sample();
    };
    setup();
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(o.seconds * 1e9);
    for (int i = 0; nowNs() < deadline || i < 4; ++i) {
        if (i > 0 && i % passesPerSetup == 0)
            setup();
        const bool traced = o.trace && i % 2 == 1;
        tracer.setEnabled(traced);
        const Pass p = hooks.pass(traced);
        tracer.setEnabled(false);
        if (!traced)
            w.passes.push_back(p);
        w.opUs.endPass();
        w.pauseUs.endPass();
        w.tracedOpUs.endPass();
        threads.sample();
    }
}

namespace {

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

} // namespace

int
runAndReport(const Options& o)
{
    const double probeBefore = hostProbeUs();
    Outcome out;
    if (o.workload == "corpus")
        out = runCorpus(o);
    else if (o.workload == "heap")
        out = runHeap(o);
    else
        out = runService(o);
    const double probeAfter = hostProbeUs();
    if (o.trace)
        out.metrics.push_back({"host.probe_us",
                               (probeBefore + probeAfter) / 2.0, "us"});

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const int procs = hostProcs();
    const int threadsMax = out.threadsMax;
    if (threadsMax > procs) {
        out.checkFailed("thread high-water " + std::to_string(threadsMax) +
                        " exceeds nproc " + std::to_string(procs));
    }
    for (const Metric& m : out.metrics) {
        if (!validMetricName(m.name) || !std::isfinite(m.value))
            out.checkFailed("bad metric " + m.name);
    }

    std::printf("{\"host\":{\"nproc\":%d,\"compiler\":%s,"
                "\"build_type\":%s,\"git_sha\":%s,\"gc_workers\":%d,"
                "\"host_probe_us\":[%s,%s],\"threads_max\":%d,"
                "\"minor_faults\":%ld,\"involuntary_switches\":%ld}}\n",
                procs, jsonString(compilerName()).c_str(),
                jsonString(buildType()).c_str(),
                jsonString(o.gitSha).c_str(), out.gcWorkers,
                jsonNumber(probeBefore).c_str(),
                jsonNumber(probeAfter).c_str(), threadsMax, ru.ru_minflt,
                ru.ru_nivcsw);

    std::string detail = "{\"workload\":" + jsonString(o.workload) +
                         ",\"seed\":" + std::to_string(o.seed);
    for (const auto& [k, v] : out.detail)
        detail += "," + jsonString(k) + ":" + v;
    detail += ",\"problems\":[";
    for (size_t i = 0; i < out.problems.size(); ++i)
        detail += (i ? "," : "") + jsonString(out.problems[i]);
    detail += "]}";
    std::printf("{\"detail\":%s}\n", detail.c_str());

    const bool correct =
        out.attempted > 0 && out.failed == 0 && out.checksHeld;
    std::string metrics;
    for (const Metric& m : out.metrics) {
        if (!metrics.empty())
            metrics += ",";
        metrics += jsonString(m.name) + ":{\"value\":" +
                   jsonNumber(m.value) + ",\"unit\":" +
                   jsonString(m.unit) + "}";
    }
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    std::fflush(stdout);
    return 0;
}

std::string
writeTrace(const Options& o, const Tracer& tracer)
{
    const std::string dir = ".bench_build/traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    return tracer.writeChromeJson(path) ? path : std::string();
}

} // namespace golfbench
