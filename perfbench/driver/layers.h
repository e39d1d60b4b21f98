#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

/**
 * @file
 * Per-layer replays: direct calls to each layer's public function on the
 * inputs one operation used, timed as replay spans.  A Workflow entry
 * point runs several layers at once (baseline() is codegen + link); the
 * replays split that time by layer.  Each replay also checks that it
 * reproduces the operation's artifact, so a replay that drifts from what
 * the operation did shows up as a failed check instead of a wrong
 * number.
 */

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "build/workflow.h"
#include "elf/object.h"

namespace perfbench {

/** What one relink consumed and produced. */
struct ReplayInputs
{
    const propeller::workload::WorkloadConfig *config = nullptr;
    const propeller::ir::Program *program = nullptr;
    /** The metadata binary the profile was mapped against. */
    const propeller::linker::Executable *metadata = nullptr;
    /** The LBR profile (decode/aggregate replays; WPA unless a DCFG). */
    const propeller::profile::Profile *profile = nullptr;
    /** Injected DCFG (fleet relinks) instead of mapping the profile. */
    const propeller::core::WholeProgramDcfg *dcfg = nullptr;
    const propeller::core::WpaResult *wpa = nullptr;
    /** The shipped PO. */
    const propeller::linker::Executable *po = nullptr;
};

/** Replay measurements, one entry per operation. */
struct LayerTimes
{
    std::vector<double> compileSec; ///< codegen: modules this op built.
    std::vector<double> modulesCompiled;
    std::vector<double> linkSec;    ///< linker: the PO link.
    std::vector<double> linkInputBytes;
    std::vector<double> poTextBytes; ///< Size of the generated code.
    std::vector<double> decodeSec;  ///< profile: wire-shard decode.
    std::vector<double> aggregateSec;
    std::vector<double> samples;
    std::vector<double> mapSec;     ///< propeller: WpaPipeline::build.
    std::vector<double> exttspSec;  ///< propeller: per-function Ext-TSP.
    std::vector<double> hfsortSec;  ///< propeller: globalOrder.
    std::vector<double> hotFunctions;
    std::vector<double> verifySec;  ///< analysis: verifyExecutable.
    std::vector<double> verifyBytes;
};

/**
 * Replay every layer of one relink.  @p phase2 supplies the Phase 2
 * objects (compiled by the caller, possibly once per run); modules in
 * @p recompiled are compiled again under the WPA's cluster directives,
 * exactly the set the operation's relink had to build.  Ext-TSP runs
 * only for @p layoutFunctions when non-empty (a warm relink lays out
 * only the drifted functions).  @p phase2Sec, when positive, is the
 * op's own Phase 2 compile time and is added to codegen.
 */
void replayRelink(Tracer &tr, RunResult &res, LayerTimes &out,
                  const ReplayInputs &in,
                  const std::vector<propeller::elf::ObjectFile> &phase2,
                  double phase2Sec, const std::set<size_t> &recompiled,
                  const std::set<std::string> &layoutFunctions);

/** Compile every module as Phase 2 does, inside a codegen replay span. */
std::vector<propeller::elf::ObjectFile>
compilePhase2(Tracer &tr, const propeller::ir::Program &prog,
              double *sec);

/** Modules holding a function named in @p functions (all if empty). */
std::set<size_t> modulesOf(const propeller::ir::Program &prog,
                           const propeller::codegen::ClusterMap &clusters,
                           const std::set<std::string> &functions);

/** Add every replay-derived per-layer metric (medians over ops). */
void addLayerMetrics(RunResult &r, const LayerTimes &t);

/**
 * The modelled-vs-measured table for one traced operation: each
 * Workflow entry point's measured span next to the PhaseReport makespans
 * it covers, plus their Spearman rank correlation, which it returns.
 */
double modelVsMeasured(RunResult &r, propeller::buildsys::Workflow &wf,
                       const std::vector<std::pair<std::string, double>>
                           &measured);

/** One line: the last relink graph's modelled schedule by phase. */
std::string scheduleLine(const propeller::sched::ScheduleReport &s,
                         double measuredSec);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
