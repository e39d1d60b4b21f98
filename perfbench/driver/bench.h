#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/**
 * @file
 * Shared pieces of the measured benchmark driver: clocks, the span
 * tracer, sample statistics and the metric list a workload returns.
 *
 * The driver times calls into the libraries' public functions from
 * outside; nothing here reaches into the program.  With tracing off the
 * tracer is a pass-through, so the end-to-end numbers carry no span
 * bookkeeping.
 */

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "workload/workload.h"

namespace perfbench {

/** Monotonic wall clock, seconds. */
double wallSec();

/** CPU seconds consumed by the whole process (all threads). */
double cpuSec();

/** Peak resident set size of the process so far, MiB. */
double peakRssMb();

/** Worker threads the program runs with: the machine's core count. */
unsigned jobs();

/**
 * Machine-speed probe: fixed single-threaded integer work that belongs to
 * the benchmark, not to the program under test.  Returns its wall seconds.  Shared hosts drift in speed by up to ~20% over tens of
 * seconds, which no run length averages out; end-to-end times are scaled
 * by the probe taken next to them, so two runs compare the program and
 * not the host's moment.
 */
double speedProbe();

/**
 * The probe's median wall time on the reference machine, a shared 4-core
 * 2.1 GHz VM; reported times are scaled to that machine's speed.
 */
constexpr double kProbeRefSec = 0.023;

/** A timing series: raw seconds, and the same scaled to reference speed. */
struct Timing
{
    std::vector<double> raw;
    std::vector<double> ref;

    /** Record @p sec, measured next to a probe that took @p probeSec. */
    void
    add(double sec, double probeSec)
    {
        raw.push_back(sec);
        ref.push_back(sec * kProbeRefSec / probeSec);
    }

    size_t size() const { return raw.size(); }
};

/** Sample statistics over one timing series. */
double median(std::vector<double> v);

/**
 * The q-quantile (0 < q < 1) by linear interpolation between order
 * statistics; used only where at least ten samples lie beyond it.
 */
double quantile(std::vector<double> v, double q);

/** Spearman rank correlation of two equal-length series (ties averaged). */
double spearman(const std::vector<double> &a, const std::vector<double> &b);

/**
 * One recorded span: a timed call at a layer boundary.  `op` groups the
 * spans of one benchmark operation; replays (direct re-runs of a layer's
 * public function on the operation's inputs, to split a phase by layer)
 * carry `replay` and are excluded from operation coverage.
 */
struct Span
{
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    uint64_t op = 0;
    bool replay = false;
};

/**
 * In-memory span recorder.  Spans nest through an explicit stack (the
 * driver is single-threaded; the program's worker threads run inside a
 * span).  Disabled tracers record nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Start operation @p op; spans opened until endOp() belong to it. */
    void beginOp(uint64_t op, const std::string &name);
    void endOp();

    /** Open / close a span on the current stack. */
    int open(const std::string &name, const std::string &layer,
             bool replay = false);
    void close(int id);

    /** Run @p fn inside a span; returns fn's result. */
    template <class F>
    auto
    span(const std::string &name, const std::string &layer, F &&fn)
    {
        int id = open(name, layer);
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            close(id);
        } else {
            auto r = fn();
            close(id);
            return r;
        }
    }

    /** Run @p fn as a replay span; returns its wall seconds. */
    template <class F>
    double
    replay(const std::string &name, const std::string &layer, F &&fn)
    {
        double t0 = wallSec();
        int id = open(name, layer, true);
        fn();
        close(id);
        return wallSec() - t0;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every non-replay span, summed per layer: a span's
     * duration minus the part its child spans cover.  Operation spans
     * carry the layer "op" and their self time is unattributed time.
     */
    std::vector<std::pair<std::string, double>> selfTimeByLayer() const;

    /**
     * Per operation: the share of its wall time covered by its child
     * (layer) spans.  Returns the smallest share over all operations
     * (1.0 when there are none).
     */
    double minOpCoverage() const;

    /** Write every span as a Chrome-trace "X" event. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    double origin_ = wallSec();
    uint64_t op_ = 0;
    int opSpan_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 1; ///< Timings: observations behind the value.
};

/** What one benchmark run returns. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable report lines (modelled vs measured, checks). */
    std::vector<std::string> lines;
    /** Correctness failures, one line each. */
    std::vector<std::string> failures;

    void
    add(const std::string &name, double value, const std::string &unit,
        size_t samples = 1)
    {
        metrics.push_back({name, value, unit, samples});
    }

    /** Count one checked operation; @p ok false records @p why. */
    void
    check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            failures.push_back(why);
        }
    }

    void line(const std::string &s) { lines.push_back(s); }

    /** Report the median of @p t at reference speed; print both medians. */
    void addTiming(const std::string &name, const Timing &t);
};

/** Command-line parameters every workload sees. */
struct RunParams
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for cache images and the Chrome trace (in the checkout). */
    std::string outDir;
    /** Records spans when tracing; a pass-through otherwise. */
    Tracer *tracer = nullptr;
};

/**
 * Programs generated per run where operations are cheap enough to vary
 * them: operations cycle through programs drawn from the seed, so a run's
 * medians average over several inputs instead of resting on one draw.
 * Each program is set up once.
 */
constexpr size_t kPrograms = 3;

/**
 * @p base with its generator seed derived from the benchmark seed, and
 * WorkloadConfig::jobs set explicitly to the machine's core count.
 */
propeller::workload::WorkloadConfig seededConfig(const std::string &name,
                                                 uint64_t seed);

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

RunResult runReleaseCold(const RunParams &p);
RunResult runRelinkWarm(const RunParams &p);
RunResult runFleetServe(const RunParams &p);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
