/**
 * @file
 * golfbench, the benchmark binary:
 *
 *   golfbench --workload corpus|heap|service --seed N --seconds S
 *             --trace 0|1 [--git-sha SHA]
 *
 * Prints a host line, a detail line and, last, the result line
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the
 * end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "golfbench: %s\n"
                 "usage: golfbench --workload corpus|heap|service "
                 "--seed N --seconds S --trace 0|1 [--git-sha SHA]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    golfbench::Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                return usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (!*v || *end || !(o.seconds > 0.0) || o.seconds > 3600.0)
                return usage("--seconds takes a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return usage("--trace takes 0 or 1");
            o.trace = v[0] == '1';
        } else if (flag == "--git-sha") {
            o.gitSha = v;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload || (o.workload != "corpus" && o.workload != "heap" &&
                          o.workload != "service"))
        return usage("--workload must be corpus, heap or service");
    return golfbench::runAndReport(o);
}
