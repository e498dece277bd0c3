#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"

#ifndef GOLFBENCH_BUILD_TYPE
#define GOLFBENCH_BUILD_TYPE "unknown"
#endif

namespace golfbench {

int
hostProcs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

int
pinnedGcWorkers()
{
    return std::min(4, hostProcs());
}

namespace {

/** Read one "Key:   value kB" field of /proc/self/status. */
long
statusField(const char* key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const size_t klen = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, klen, key) == 0 && line.size() > klen &&
            line[klen] == ':') {
            return std::strtol(line.c_str() + klen + 1, nullptr, 10);
        }
    }
    return -1;
}

/** A dependent chain of multiply-xorshift steps: pure integer ALU
 *  work, no memory traffic, so it reads the host's CPU speed. */
uint64_t
probeKernel(uint64_t x, int iters)
{
    for (int i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
    }
    return x;
}

} // namespace

double
hostProbeUs()
{
    static volatile uint64_t sink = 0;
    std::vector<double> us;
    for (int rep = 0; rep < 9; ++rep) {
        const uint64_t t0 = nowNs();
        sink = sink + probeKernel(static_cast<uint64_t>(rep) + 1, 200000);
        us.push_back(static_cast<double>(nowNs() - t0) / 1000.0);
    }
    return median(us);
}

double
peakRssMb()
{
    const long kb = statusField("VmHWM");
    return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

int
threadCount()
{
    const long n = statusField("Threads");
    return n < 0 ? 0 : static_cast<int>(n);
}

namespace {

void
pinTo(const std::vector<int>& cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

} // namespace

CpuRotation::CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set))
            cpus_.push_back(c);
    }
}

CpuRotation::~CpuRotation()
{
    if (cpus_.size() > 1)
        pinTo(cpus_);
}

void
CpuRotation::next()
{
    if (cpus_.size() < 2)
        return;
    pinTo({cpus_[at_]});
    at_ = (at_ + 1) % cpus_.size();
}

void
ThreadWatch::sample()
{
    max_ = std::max(max_, threadCount());
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
buildType()
{
    return GOLFBENCH_BUILD_TYPE;
}

} // namespace golfbench
