#include "layers.h"

#include <map>

#include "analysis/verifier.h"
#include "codegen/codegen.h"
#include "linker/linker.h"
#include "profile/profile.h"
#include "propeller/propeller.h"

namespace perfbench {

using namespace propeller;

std::vector<elf::ObjectFile>
compilePhase2(Tracer &tr, const ir::Program &prog, double *sec)
{
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    std::vector<elf::ObjectFile> objs;
    double s = tr.replay("codegen::compileProgram", "codegen",
                         [&] { objs = codegen::compileProgram(prog, copts); });
    if (sec)
        *sec = s;
    return objs;
}

std::set<size_t>
modulesOf(const ir::Program &prog, const codegen::ClusterMap &clusters,
          const std::set<std::string> &functions)
{
    std::set<size_t> out;
    for (size_t m = 0; m < prog.modules.size(); ++m)
        for (const auto &fn : prog.modules[m]->functions)
            if (clusters.count(fn->name) &&
                (functions.empty() || functions.count(fn->name)))
                out.insert(m);
    return out;
}

void
replayRelink(Tracer &tr, RunResult &res, LayerTimes &out,
             const ReplayInputs &in,
             const std::vector<elf::ObjectFile> &phase2, double phase2Sec,
             const std::set<size_t> &recompiled,
             const std::set<std::string> &layoutFunctions)
{
    const unsigned threads = in.config->jobs;

    // ---- profile: decode the wire shards, aggregate -------------------
    if (in.profile) {
        std::vector<std::vector<uint8_t>> shards =
            profile::serializeShards(*in.profile, 128);
        profile::Profile decoded;
        out.decodeSec.push_back(tr.replay("profile::loadShards", "profile",
                                          [&] {
                                              decoded =
                                                  profile::loadShards(shards);
                                          }));
        profile::AggregationOptions agg;
        agg.threads = threads;
        out.aggregateSec.push_back(
            tr.replay("profile::aggregate", "profile",
                      [&] { profile::aggregate(decoded, agg); }));
        out.samples.push_back(static_cast<double>(in.profile->samples.size()));
        res.check(decoded.samples.size() == in.profile->samples.size(),
                  "profile shard round trip lost samples");
    }

    // ---- propeller: the WPA stages ------------------------------------
    {
        core::WpaPipeline pipe(*in.metadata, *in.profile,
                               core::LayoutOptions{}, threads);
        if (in.dcfg)
            pipe.overrideDcfg(*in.dcfg);
        out.mapSec.push_back(tr.replay("WpaPipeline::build", "propeller",
                                       [&] { pipe.build(); }));
        const core::WholeProgramDcfg &dcfg = pipe.dcfg();
        out.exttspSec.push_back(
            tr.replay("WpaPipeline::layoutFunction", "propeller", [&] {
                for (size_t f = 0; f < pipe.functionCount(); ++f)
                    if (layoutFunctions.empty() ||
                        layoutFunctions.count(dcfg.functions[f].function))
                        pipe.layoutFunction(f);
            }));
        core::LdProfile order;
        out.hfsortSec.push_back(tr.replay("WpaPipeline::globalOrder",
                                          "propeller",
                                          [&] { order = pipe.globalOrder(); }));
        out.hotFunctions.push_back(
            static_cast<double>(in.wpa->hotFunctions.size()));
        res.check(order.symbolOrder == in.wpa->ldProf.symbolOrder,
                  "replayed hfsort order diverged from the relink's");
    }

    // ---- codegen: the modules this relink rebuilt ---------------------
    const ir::Program &prog = *in.program;
    std::vector<elf::ObjectFile> objs = phase2;
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    copts.bbSections = codegen::BbSectionsMode::Clusters;
    copts.clusters = &in.wpa->ccProf.clusters;
    double compile = tr.replay("codegen::compileModule", "codegen", [&] {
        for (size_t m : recompiled)
            objs[m] = codegen::compileModule(*prog.modules[m], copts);
    });
    // Every module with a clustered function is rebuilt for the PO; the
    // ones outside @p recompiled were cache hits for this relink.
    for (size_t m : modulesOf(prog, in.wpa->ccProf.clusters, {}))
        if (!recompiled.count(m))
            objs[m] = codegen::compileModule(*prog.modules[m], copts);
    out.compileSec.push_back(compile + std::max(0.0, phase2Sec));
    out.modulesCompiled.push_back(
        static_cast<double>(recompiled.size()) +
        (phase2Sec > 0 ? static_cast<double>(prog.modules.size()) : 0.0));

    // ---- linker: the PO link ------------------------------------------
    linker::Options lopts;
    lopts.outputName = in.config->name + ".po";
    lopts.entrySymbol = prog.entryFunction;
    lopts.hugePagesText = in.config->hugePages;
    lopts.symbolOrder = in.wpa->ldProf.symbolOrder;
    linker::Options twinOpts = lopts;
    lopts.stripAddrMaps = true;
    linker::LinkStats stats;
    linker::Executable po;
    out.linkSec.push_back(tr.replay("linker::link", "linker", [&] {
        po = linker::link(objs, lopts, &stats);
    }));
    out.linkInputBytes.push_back(static_cast<double>(stats.inputBytes));
    out.poTextBytes.push_back(static_cast<double>(po.text.size()));
    res.check(po.text == in.po->text,
              "replayed PO relink diverged from the shipped PO");

    // ---- analysis: verify the metadata-keeping twin --------------------
    twinOpts.outputName += "-verify";
    linker::Executable twin = linker::link(objs, twinOpts, nullptr);
    analysis::VerifyOptions vopts;
    vopts.expectedOrder = &in.wpa->ldProf;
    for (const auto &name : in.wpa->stats.quarantinedFunctions)
        vopts.exemptFunctions.insert(name);
    analysis::VerifyReport rep;
    out.verifySec.push_back(
        tr.replay("analysis::verifyExecutable", "analysis",
                  [&] { rep = analysis::verifyExecutable(twin, vopts); }));
    out.verifyBytes.push_back(static_cast<double>(rep.bytesVerified));
    res.check(rep.clean() && twin.text == po.text,
              "replayed verification of the PO twin is not clean");
}

void
addLayerMetrics(RunResult &r, const LayerTimes &t)
{
    r.add("codegen.compile_s", median(t.compileSec), "s",
          t.compileSec.size());
    r.add("codegen.modules_compiled", median(t.modulesCompiled), "count");
    r.add("linker.link_s", median(t.linkSec), "s", t.linkSec.size());
    r.add("linker.input_bytes", median(t.linkInputBytes), "bytes");
    r.add("linker.po_text_bytes", median(t.poTextBytes), "bytes");
    r.add("profile.decode_s", median(t.decodeSec), "s", t.decodeSec.size());
    r.add("profile.aggregate_s", median(t.aggregateSec), "s",
          t.aggregateSec.size());
    r.add("profile.samples", median(t.samples), "count");
    r.add("propeller.map_s", median(t.mapSec), "s", t.mapSec.size());
    r.add("propeller.exttsp_s", median(t.exttspSec), "s",
          t.exttspSec.size());
    r.add("propeller.hfsort_s", median(t.hfsortSec), "s",
          t.hfsortSec.size());
    r.add("propeller.hot_functions", median(t.hotFunctions), "count");
    r.add("analysis.verify_s", median(t.verifySec), "s", t.verifySec.size());
    double bytes = median(t.verifyBytes), sec = median(t.verifySec);
    r.add("analysis.text_bytes_per_s", sec > 0 ? bytes / sec : 0.0, "B/s");
}

double
modelVsMeasured(RunResult &r, buildsys::Workflow &wf,
                const std::vector<std::pair<std::string, double>> &measured)
{
    // The PhaseReports each Workflow entry point produces when it is the
    // first to pull them.
    static const std::map<std::string, std::vector<std::string>> kCovers = {
        {"Workflow::baseline", {"phase1", "phase2.codegen", "baseline.link"}},
        {"Workflow::metadataBinary",
         {"phase1", "phase2.codegen", "phase2.link"}},
        {"Workflow::profile", {"phase3.collect"}},
        {"Workflow::wpa", {"phase3.wpa"}},
        {"Workflow::propellerBinary", {"phase4.codegen", "phase4.link"}},
        {"Workflow::verifyReport", {"phase5.verify"}},
    };
    std::vector<double> model, meas;
    std::set<std::string> used;
    r.line("  modelled vs measured, per Workflow entry point:");
    for (const auto &[name, sec] : measured) {
        auto it = kCovers.find(name);
        if (it == kCovers.end())
            continue;
        double m = 0.0;
        for (const std::string &phase : it->second)
            if (wf.hasReport(phase) && used.insert(phase).second)
                m += wf.report(phase).makespanSec;
        model.push_back(m);
        meas.push_back(sec);
        r.line(format("    %-28s modelled %10.2f s   measured %8.4f s",
                      name.c_str(), m, sec));
    }
    double rho = spearman(model, meas);
    r.line(format("    rank correlation (Spearman, %zu phases): %.3f",
                  model.size(), rho));
    return rho;
}

std::string
scheduleLine(const sched::ScheduleReport &s, double measuredSec)
{
    std::map<std::string, double> cost;
    for (const sched::TaskSpan &t : s.spans)
        cost[t.phase] += t.costSec;
    std::string out = format("  relink graph: modelled makespan %.2f s on %u "
                             "workers (measured wall %.4f s); task cost:",
                             s.makespanSec, s.modelWorkers, measuredSec);
    for (const auto &[phase, c] : cost)
        out += format(" %s %.2f s", phase.c_str(), c);
    return out;
}

} // namespace perfbench
