/**
 * @file
 * The `corpus` workload: the paper's 105-program detection corpus, each
 * program once at procs 1 and 4 per pass, through
 * microbench::runPatternOnce with every other HarnessConfig default
 * (GOLF, Reclaim, obs on). One op is one program run.
 */
#include <map>
#include <memory>

#include "chan/channel.hpp"
#include "golf/collector.hpp"
#include "microbench/harness.hpp"
#include "microbench/registry.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace golfbench {

namespace mb = golf::microbench;
namespace rt = golf::rt;
using golf::support::VTime;

std::vector<CorpusOp>
corpusOps(uint64_t seed)
{
    std::vector<CorpusOp> ops;
    const size_t n = mb::Registry::instance().all().size();
    for (size_t i = 0; i < n; ++i) {
        for (int procs : {1, 4}) {
            ops.push_back(CorpusOp{i, procs, mixSeed(seed, ops.size())});
        }
    }
    return ops;
}

namespace {

mb::HarnessConfig
harnessConfig(const CorpusOp& op, bool obs)
{
    mb::HarnessConfig cfg;
    cfg.procs = op.procs;
    cfg.seed = op.seed;
    cfg.obs.enabled = obs;
    return cfg;
}

/** Fill the comparable part of a verdict from reports matched to
 *  leaky sites, and check it. */
void
judge(const mb::Pattern& p, size_t individual, size_t unexpected,
      const std::map<std::string, int>& perLabel, bool failed,
      const std::string& failure, CorpusVerdict& v)
{
    v.digest = std::to_string(individual) + "|" +
               std::to_string(unexpected) + "|";
    for (const auto& [label, count] : perLabel)
        v.digest += label + "=" + std::to_string(count) + ",";
    if (!p.correct) {
        v.sitesExpected = static_cast<int>(p.leakSites.size());
        for (const std::string& label : p.leakSites) {
            auto it = perLabel.find(label);
            if (it != perLabel.end() && it->second > 0)
                ++v.sitesHit;
        }
    }
    if (failed)
        v.problem = p.name + ": runtime failure: " + failure;
    else if (unexpected != 0)
        v.problem = p.name + ": unexpected reports";
    else if (p.correct && individual != 0)
        v.problem = p.name + ": report on a correct variant";
}

// The Figure 5 template of microbench/harness.cpp, reproduced so the
// traced run can drive the same program through Runtime::step() and
// put spans around the constructor, every step and the destructor.
// The traced run checks that its verdicts equal runPatternOnce's.

rt::Go
replicaInstance(mb::PatternCtx* ctx, const mb::Pattern* p, VTime delay)
{
    co_await rt::sleepFor(delay);
    ctx->rt->goAt(rt::Site{"<harness>", 0, "spawn"}, p->body, ctx);
    co_return;
}

rt::Go
replicaMain(mb::PatternCtx* ctx, const mb::Pattern* p, int n,
            VTime duration)
{
    for (int i = 0; i < n; ++i) {
        auto delay = static_cast<VTime>(
            ctx->rng.nextBelow(200 * golf::support::kMicrosecond));
        ctx->rt->goAt(rt::Site{"<harness>", 0, "stagger"},
                      replicaInstance, ctx, p, delay);
    }
    co_await rt::sleepFor(duration);
    co_await rt::gcNow();
    co_return;
}

/** One op through the stepped replica, traced, feeding LayerStats. */
CorpusVerdict
replicaOp(const CorpusOp& op, uint64_t opId, Tracer& tracer,
          LayerStats& ls)
{
    const mb::Pattern& p = mb::Registry::instance().all()[op.pattern];
    const mb::HarnessConfig cfg = harnessConfig(op, true);
    rt::Config rc;
    rc.procs = cfg.procs;
    rc.seed = cfg.seed;
    rc.gcMode = cfg.gcMode;
    rc.recovery = cfg.recovery;
    rc.detectEveryN = cfg.detectEveryN;
    rc.gcWorkers = cfg.gcWorkers;
    rc.heap = cfg.heap;
    rc.obs = cfg.obs;
    rc.mem = cfg.mem;

    SpanGuard opSpan(tracer, SpanKind::Op, opId);
    int32_t s = tracer.open(SpanKind::RuntimeNew, opId);
    auto runtime = std::make_unique<rt::Runtime>(rc);
    tracer.close(s);

    mb::PatternCtx ctx;
    ctx.rt = runtime.get();
    ctx.rng = golf::support::Rng(cfg.seed ^ 0xBE7CB37Cull);
    ctx.procs = cfg.procs;
    const int n = mb::instancesForFlakiness(p.flakiness, cfg.maxInstances);
    runtime->startMain(replicaMain, &ctx, &p, n, cfg.duration);
    bool idle = false;
    for (;;) {
        const uint64_t before = runtime->collector().cycles();
        s = tracer.open(SpanKind::Step, opId);
        const auto outcome = runtime->step();
        tracer.close(s, runtime->collector().cycles() != before ? 1 : 0);
        ++ls.steps;
        if (outcome == rt::Runtime::StepOutcome::Done)
            break;
        if (outcome == rt::Runtime::StepOutcome::Idle) {
            idle = true;
            break;
        }
    }
    const rt::RunResult rr = runtime->finishRun();

    std::map<std::string, std::string> labelOfSite;
    for (const auto& [label, site] : ctx.siteOfLabel)
        labelOfSite[site] = label;
    std::map<std::string, int> perLabel;
    size_t unexpected = 0;
    const auto& log = runtime->collector().reports();
    for (const auto& r : log.all()) {
        auto it = labelOfSite.find(r.spawnSite.str());
        if (it != labelOfSite.end())
            ++perLabel[it->second];
        else
            ++unexpected;
    }
    CorpusVerdict v;
    judge(p, log.total(), unexpected, perLabel, rr.panicked || idle,
          idle ? "stepped run went idle" : rr.panicMessage, v);

    for (const auto& cs : runtime->collector().history())
        ls.cycles.push_back(cs);
    const golf::gc::PoolStats zero;
    addPoolDelta(ls.poolDelta, zero, runtime->heap().poolStats());
    ls.spanMb += static_cast<double>(
                     runtime->heap().poolStats().spanBytes) /
                 (1024.0 * 1024.0);
    ls.spawned += static_cast<uint64_t>(
        obsValue(*runtime, "/sched/goroutines/spawned:count"));
    ls.flightDropped += obsValue(*runtime, "/obs/flight/dropped:records");
    ++ls.ops;

    // Corpus programs allocate inside their own bodies; time a batch
    // of the objects they mostly allocate (unbuffered channels) on
    // the finished runtime, where it cannot change the verdict.
    {
        SpanGuard batch(tracer, SpanKind::MakeBatch, opId);
        constexpr int kBatch = 256;
        for (int i = 0; i < kBatch; ++i)
            golf::chan::makeChan<int>(*runtime, 0);
        batch.setCount(kBatch);
    }
    s = tracer.open(SpanKind::RuntimeDelete, opId);
    runtime.reset();
    tracer.close(s);
    return v;
}

} // namespace

CorpusVerdict
runCorpusOp(const CorpusOp& op, bool obs)
{
    const mb::Pattern& p = mb::Registry::instance().all()[op.pattern];
    const mb::RunOutcome r = mb::runPatternOnce(p, harnessConfig(op, obs));
    CorpusVerdict v;
    judge(p, r.individualReports, r.unexpectedReports, r.detectedPerLabel,
          r.runtimeFailure, r.failureMessage, v);
    v.gcCycles = r.gcCycles;
    v.avgMarkWallUs = r.avgMarkWallUs;
    return v;
}

Outcome
runCorpus(const Options& o)
{
    Outcome out;
    Tracer tracer;
    ThreadWatch threads;
    Window w(99.0, 99.0);
    LayerStats ls;
    std::vector<CorpusOp> ops;
    std::vector<std::string> digests;
    uint64_t opId = 0;

    // One pass over the op set. Samples land in `opUs` (or nowhere
    // for the warm-up pass) and every verdict is checked.
    auto pass = [&](Samples* opUs, Samples* pauseUs,
                    bool obs) {
        Pass result;
        const uint64_t t0 = nowNs();
        for (size_t k = 0; k < ops.size(); ++k) {
            const uint64_t a = nowNs();
            const int32_t s = tracer.open(SpanKind::RunPattern, ++opId);
            CorpusVerdict v = runCorpusOp(ops[k], obs);
            tracer.close(s);
            const uint64_t b = nowNs();
            ++out.attempted;
            if (!v.problem.empty())
                out.fail(v.problem);
            if (digests[k].empty())
                digests[k] = v.digest;
            else if (digests[k] != v.digest)
                out.fail("verdict changed between passes: " +
                         std::to_string(k));
            if (opUs)
                opUs->add(static_cast<double>(b - a) / 1000.0);
            if (pauseUs && v.gcCycles > 0)
                pauseUs->add(v.avgMarkWallUs);
            if (tracer.enabled()) {
                ls.detectHit += v.sitesHit;
                ls.detectExpected += v.sitesExpected;
            }
        }
        result.ops = ops.size();
        result.wallNs = nowNs() - t0;
        return result;
    };

    LoopHooks hooks;
    hooks.setup = [&] {
        ops = corpusOps(o.seed);
        if (digests.empty())
            digests.assign(ops.size(), std::string());
        pass(nullptr, nullptr, true);
    };
    hooks.pass = [&](bool traced) {
        return traced ? pass(&w.tracedOpUs, nullptr, true)
                      : pass(&w.opUs, &w.pauseUs, true);
    };
    std::vector<double> setupS;
    closedLoop(o, 20, hooks, tracer, threads, setupS, w);

    // The stepped replica pass, after the measured window: it exposes
    // every cycle's CycleStats, which runPatternOnce does not, and in a
    // traced run records the per-layer spans and counters.
    tracer.setEnabled(o.trace);
    for (size_t k = 0; k < ops.size(); ++k) {
        CorpusVerdict v = replicaOp(ops[k], ++opId, tracer, ls);
        ++out.attempted;
        if (!v.problem.empty())
            out.fail(v.problem);
        else if (v.digest != digests[k])
            out.fail("stepped replica disagrees with runPatternOnce: " +
                     mb::Registry::instance().all()[ops[k].pattern].name);
    }
    tracer.setEnabled(false);
    // Corpus heaps stay under the serial budget: the parallel marker
    // must never run here.
    uint64_t parallelCycles = 0;
    for (const auto& cs : ls.cycles)
        parallelCycles += cs.parallelMarkJobs > 0 ? 1 : 0;
    if (parallelCycles > 0)
        out.checkFailed(std::to_string(parallelCycles) +
                        " corpus cycles ran the parallel marker");

    if (o.trace) {
        ls.spanMb /= static_cast<double>(ops.size());
        ls.runtimesPerOp = 1.0;

        // Obs cost: an obs-on pass, then an obs-off pass.
        Samples on;
        Samples off;
        pass(&on, nullptr, true);
        pass(&off, nullptr, false);
        ls.obsOnOpNs = on.all().percentile(50.0);
        ls.obsOffOpNs = off.all().percentile(50.0);
        ls.tracedP50 = w.tracedOpUs.all().percentile(50.0);
        ls.untracedP50 = w.opUs.all().percentile(50.0);
        out.detail["trace_file"] =
            "\"" + writeTrace(o, tracer) + "\"";
        out.metrics = layerMetrics(ls, tracer);
    } else {
        out.metrics = endToEndMetrics(w, setupS, out);
    }
    out.detail["ops_per_pass"] = std::to_string(ops.size());
    out.gcWorkers = golf::rt::Config{}.resolvedGcWorkers();
    out.threadsMax = threads.max();
    return out;
}

} // namespace golfbench
