/**
 * @file
 * perfbench binary: runs one workload in this process and prints
 * its self-describing record as the last line of standard output.
 *
 *   perfbench --workload <open-hedged|serial-sampled|fleet-chaos-sweep>
 *             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
 *
 * Exit code 0 only when every self-check passed.
 */
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "<open-hedged|serial-sampled|fleet-chaos-sweep> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(value, "0") != 0;
        } else if (arg == "--trace-out") {
            opt.trace_out = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
        if (end && *end != '\0')
            return usage(("not a number: " + std::string(value)).c_str());
    }
    if (opt.seconds <= 0.0)
        return usage("--seconds must be positive");

    Record rec;
    rec.workload = opt.workload;
    rec.seed = opt.seed;
    rec.traced = opt.trace;
    try {
        if (opt.workload == "open-hedged")
            runOpenHedged(opt, rec);
        else if (opt.workload == "serial-sampled")
            runSerialSampled(opt, rec);
        else if (opt.workload == "fleet-chaos-sweep")
            runFleetChaosSweep(opt, rec);
        else
            return usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        rec.check("no_exception", false);
        rec.notes.push_back(e.what());
    }

    for (const auto &[name, ok] : rec.checks)
        if (!ok)
            std::cerr << "SELF-CHECK FAIL: " << name << "\n";
    std::cout << rec.json() << std::endl;
    return rec.allChecksPass() ? 0 : 1;
}
