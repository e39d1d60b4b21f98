/**
 * @file
 * perfbench_driver: the measured benchmark of the relinker.
 *
 *   perfbench_driver --workload <release-cold|relink-warm|fleet-serve>
 *                    --seed N --seconds S --trace 0|1 --out-dir DIR
 *
 * Runs one workload for S seconds after its set-up, checks every
 * operation's output, and prints a report followed by one JSON line:
 * {"correct", "attempted", "failed", "metrics"}.  Untraced runs report
 * the end-to-end metrics; traced runs record spans around every call
 * into the libraries, write them as a Chrome trace into DIR, and report
 * the per-layer metrics.  Exits 1 when any check failed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct Declared
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json (run.py checks both directions).
const Declared kEndToEnd[] = {
    {"setup_s", "s"},          {"op_s.p50", "s"},
    {"relink_s.p50", "s"},     {"relink_cpu_s.p50", "s"},
    {"peak_rss_mb", "MB"},     {"po_cycles_ratio", "ratio"},
};

const Declared kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"codegen.compile_s", "s"},
    {"codegen.modules_compiled", "count"},
    {"linker.link_s", "s"},
    {"linker.input_bytes", "bytes"},
    {"linker.po_text_bytes", "bytes"},
    {"sim.run_s", "s"},
    {"sim.minst_per_s", "Minst/s"},
    {"sim.po_l1i_ratio", "ratio"},
    {"sim.po_itlb_ratio", "ratio"},
    {"profile.decode_s", "s"},
    {"profile.aggregate_s", "s"},
    {"profile.samples", "count"},
    {"propeller.map_s", "s"},
    {"propeller.exttsp_s", "s"},
    {"propeller.hfsort_s", "s"},
    {"propeller.hot_functions", "count"},
    {"stale.match_s", "s"},
    {"stale.infer_s", "s"},
    {"stale.block_match_rate", "ratio"},
    {"build.cache_save_s", "s"},
    {"build.cache_load_s", "s"},
    {"build.cache_image_bytes", "bytes"},
    {"build.layout_hit_rate", "ratio"},
    {"build.object_hit_rate", "ratio"},
    {"sched.relink_cpu_over_wall", "ratio"},
    {"sched.steal_hit_rate", "ratio"},
    {"sched.modelled_makespan_s", "s"},
    {"sched.model_rank_corr", "ratio"},
    {"sched.warm_speedup_measured", "x"},
    {"sched.warm_speedup_modelled", "x"},
    {"analysis.verify_s", "s"},
    {"analysis.text_bytes_per_s", "B/s"},
    {"service.ingest_epoch_s", "s"},
    {"service.relink_epoch_s", "s"},
    {"service.epoch_s.p90", "s"},
    {"service.ingest_samples_per_s", "1/s"},
    {"service.shards", "count"},
    {"service.relinks", "count"},
    {"service.chaos_dropped", "count"},
    {"service.chaos_duplicated", "count"},
    {"service.chaos_delayed", "count"},
    {"service.chaos_corrupted", "count"},
    {"service.chaos_reorder_swaps", "count"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
};

/** Operations' layer spans must cover this share of their wall time. */
constexpr double kMinCoverage = 0.95;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "<release-cold|relink-warm|fleet-serve> --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
}

template <size_t N>
std::vector<Metric>
conform(RunResult &r, const Declared (&declared)[N], bool fillZero)
{
    std::map<std::string, Metric> got;
    for (const Metric &m : r.metrics) {
        if (got.count(m.name))
            r.check(false, "metric reported twice: " + m.name);
        got[m.name] = m;
    }
    std::vector<Metric> out;
    for (const Declared &d : declared) {
        auto it = got.find(d.name);
        if (it == got.end()) {
            // A layer this workload does no work in reads 0.
            if (!fillZero)
                r.check(false, std::string("metric missing: ") + d.name);
            out.push_back({d.name, 0.0, d.unit, 0});
            continue;
        }
        if (it->second.unit != d.unit)
            r.check(false, "unit mismatch for " + it->second.name);
        if (!std::isfinite(it->second.value)) {
            r.check(false, "metric is not a finite number: " + it->second.name);
            it->second.value = 0.0;
        }
        out.push_back(it->second);
        got.erase(it);
    }
    for (const auto &[name, m] : got)
        r.check(false, "undeclared metric: " + name);
    return out;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workloadName;
    RunParams p;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], val = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            workloadName = val;
        } else if (flag == "--seed") {
            p.seed = std::strtoull(val.c_str(), &end, 10);
            haveSeed = *end == 0 && !val.empty();
        } else if (flag == "--seconds") {
            p.seconds = std::strtod(val.c_str(), &end);
            haveSeconds = *end == 0 && p.seconds > 0;
        } else if (flag == "--trace") {
            haveTrace = val == "0" || val == "1";
            p.trace = val == "1";
        } else if (flag == "--out-dir") {
            p.outDir = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !haveSeed || !haveSeconds || !haveTrace ||
        p.outDir.empty())
        return usage();

    Tracer tracer(p.trace);
    p.tracer = &tracer;
    RunResult r;
    if (workloadName == "release-cold")
        r = runReleaseCold(p);
    else if (workloadName == "relink-warm")
        r = runRelinkWarm(p);
    else if (workloadName == "fleet-serve")
        r = runFleetServe(p);
    else
        return usage();

    if (p.trace) {
        r.add("trace.coverage", tracer.minOpCoverage(), "ratio");
        r.check(tracer.minOpCoverage() >= kMinCoverage,
                format("layer spans cover only %.1f%% of an operation",
                       100.0 * tracer.minOpCoverage()));
    }
    std::vector<Metric> metrics =
        p.trace ? conform(r, kPerLayer, true) : conform(r, kEndToEnd, false);

    std::printf("workload %s, seed %llu, %u threads, %s\n",
                workloadName.c_str(), static_cast<unsigned long long>(p.seed),
                jobs(), p.trace ? "traced" : "untraced");
    for (const std::string &line : r.lines)
        std::printf("%s\n", line.c_str());

    if (p.trace) {
        std::printf("self time by layer, traced operations (the \"op\" row "
                    "is time no layer span covers):\n");
        for (const auto &[layer, sec] : tracer.selfTimeByLayer())
            std::printf("  %-12s %10.4f s\n", layer.c_str(), sec);
        const std::string path = p.outDir + "/trace-" + workloadName +
                                 "-seed" + std::to_string(p.seed) + ".json";
        r.check(tracer.writeChromeTrace(path),
                "cannot write the Chrome trace " + path);
        std::printf("wrote Chrome trace %s (%zu spans)\n", path.c_str(),
                    tracer.spans().size());
    }

    std::printf("%-32s %14s %-8s %s\n", "metric", "value", "unit", "samples");
    for (const Metric &m : metrics)
        std::printf("%-32s %14.6g %-8s %zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    std::printf("error_rate %.4f (%llu failed of %llu checked operations)\n",
                r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 1.0,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const std::string &f : r.failures)
        std::printf("FAILED: %s\n", f.c_str());

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(
                    r.attempted, 1)),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    return correct ? 0 : 1;
}
