#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <map>
#include <thread>

#include "support/rng.h"

namespace perfbench {

double
wallSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSec()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

unsigned
jobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

namespace {

/** An LCG-driven read-modify-write walk over @p buf, then a sort. */
void
probeWork(std::vector<uint32_t> &buf)
{
    uint64_t x = 12345;
    uint32_t acc = 0;
    for (int i = 0; i < 8'000'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        uint32_t &b = buf[(x >> 33) & (buf.size() - 1)];
        b += acc;
        acc ^= b + static_cast<uint32_t>(x);
        if (acc & 1)
            acc += 7;
    }
    std::vector<uint32_t> v(buf.begin(), buf.begin() + 50'000);
    std::sort(v.begin(), v.end());
    buf[acc & (buf.size() - 1)] += v[v.size() / 2];
}

} // namespace

double
speedProbe()
{
    // One thread over 256 KiB: the operations run mostly on one core, and
    // a working set this small keeps the host's page backing, which
    // differs from one process to the next, out of the time.
    static std::vector<uint32_t> buf(1u << 16, 1);
    double t0 = wallSec();
    probeWork(buf);
    return wallSec() - t0;
}

void
RunResult::addTiming(const std::string &name, const Timing &t)
{
    add(name, median(t.ref), "s", t.size());
    line(format("  %-18s median %.4f s raw, %.4f s at reference speed "
                "(%zu samples)",
                name.c_str(), median(t.raw), median(t.ref), t.size()));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

std::vector<double>
ranks(const std::vector<double> &v)
{
    std::vector<size_t> idx(v.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < idx.size();) {
        size_t j = i;
        while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]])
            ++j;
        double avg = 0.5 * static_cast<double>(i + j) + 1.0;
        for (size_t k = i; k <= j; ++k)
            r[idx[k]] = avg;
        i = j + 1;
    }
    return r;
}

} // namespace

double
spearman(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size() || a.size() < 2)
        return 0.0;
    std::vector<double> ra = ranks(a), rb = ranks(b);
    double ma = 0, mb = 0;
    for (size_t i = 0; i < ra.size(); ++i) {
        ma += ra[i];
        mb += rb[i];
    }
    ma /= static_cast<double>(ra.size());
    mb /= static_cast<double>(rb.size());
    double num = 0, da = 0, db = 0;
    for (size_t i = 0; i < ra.size(); ++i) {
        num += (ra[i] - ma) * (rb[i] - mb);
        da += (ra[i] - ma) * (ra[i] - ma);
        db += (rb[i] - mb) * (rb[i] - mb);
    }
    return da > 0 && db > 0 ? num / std::sqrt(da * db) : 0.0;
}

// ---- Tracer -----------------------------------------------------------

void
Tracer::beginOp(uint64_t op, const std::string &name)
{
    op_ = op;
    opSpan_ = open(name, "op");
}

void
Tracer::endOp()
{
    close(opSpan_);
    opSpan_ = -1;
}

int
Tracer::open(const std::string &name, const std::string &layer, bool replay)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.start = wallSec() - origin_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    s.replay = replay || (s.parent >= 0 && spans_[s.parent].replay);
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (!enabled_ || id < 0)
        return;
    spans_[id].end = wallSec() - origin_;
    while (!stack_.empty()) {
        int top = stack_.back();
        stack_.pop_back();
        if (top == id)
            break;
    }
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimeByLayer() const
{
    std::vector<double> childSum(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0 && !s.replay)
            childSum[s.parent] += s.end - s.start;
    std::map<std::string, double> byLayer;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].replay)
            continue;
        byLayer[spans_[i].layer] +=
            spans_[i].end - spans_[i].start - childSum[i];
    }
    return {byLayer.begin(), byLayer.end()};
}

double
Tracer::minOpCoverage() const
{
    double worst = 1.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].layer != "op")
            continue;
        double covered = 0.0;
        for (const Span &c : spans_)
            if (c.parent == static_cast<int>(i) && !c.replay)
                covered += c.end - c.start;
        double wall = spans_[i].end - spans_[i].start;
        if (wall > 0)
            worst = std::min(worst, covered / wall);
    }
    return worst;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    // Operation spans and their phases on tid 1, replays on tid 2, so
    // the viewer shows the two timelines side by side.
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 1, \"args\": {\"name\": \"operations\"}},\n"
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 2, \"args\": {\"name\": \"layer replays\"}}");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %llu, "
                     "\"replay\": %s}}",
                     s.name.c_str(), s.layer.c_str(), s.start * 1e6,
                     (s.end - s.start) * 1e6, s.replay ? 2 : 1, i, s.parent,
                     static_cast<unsigned long long>(s.op),
                     s.replay ? "true" : "false");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---- Misc -------------------------------------------------------------

propeller::workload::WorkloadConfig
seededConfig(const std::string &name, uint64_t seed)
{
    propeller::workload::WorkloadConfig cfg =
        propeller::workload::configByName(name);
    cfg.seed = propeller::mix64(cfg.seed, seed);
    cfg.jobs = jobs();
    return cfg;
}

std::string
format(const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace perfbench
