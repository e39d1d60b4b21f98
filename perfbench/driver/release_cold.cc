/**
 * @file
 * release-cold: one full cold release of bigtable per operation on a
 * fresh buildsys::Workflow — generate, Phase 2 build, LBR profile, WPA,
 * relink, Phase 5 verify, persist the cache image — then the simulator's
 * evaluation of PO against the baseline.  Operations cycle through
 * kPrograms bigtable programs generated from the seed.
 */

#include <cstdio>
#include <sys/stat.h>

#include "layers.h"
#include "sim/machine.h"
#include "support/rng.h"

namespace perfbench {

using namespace propeller;

RunResult
runReleaseCold(const RunParams &p)
{
    RunResult r;
    Tracer &tr = *p.tracer;
    std::vector<workload::WorkloadConfig> cfgs;
    for (size_t j = 0; j < kPrograms; ++j)
        cfgs.push_back(seededConfig("bigtable", mix64(p.seed, j)));
    const std::string image = p.outDir + "/release-cold.cache";

    // ---- Set-up: per program, the jobs=1 reference PO its releases must
    // match byte for byte.
    Timing setup;
    std::vector<std::vector<uint8_t>> refText;
    for (const workload::WorkloadConfig &cfg : cfgs) {
        double probe = speedProbe();
        double t0 = wallSec();
        workload::WorkloadConfig serial = cfg;
        serial.jobs = 1;
        buildsys::Workflow ref(serial);
        refText.push_back(ref.propellerBinary().text);
        setup.add(wallSec() - t0, probe);
    }

    Timing opWall, relinkWall, relinkCpu;
    std::vector<double> ratio, makespan, stealRate, cpuOverWall;
    std::vector<double> tracedWall, untracedWall, genSec, simSec, minst,
        l1i, itlb, saveSec, loadSec, imageBytes, layoutHit, objectHit, rho;
    LayerTimes layers;

    double deadline = wallSec() + p.seconds;
    // Whole cycles through the programs, so each weighs the same.
    for (uint64_t op = 0; wallSec() < deadline || op % kPrograms != 0; ++op) {
        const workload::WorkloadConfig &cfg = cfgs[op % kPrograms];
        const sim::MachineOptions eval = workload::evalOptions(cfg);
        // In a traced run every other operation runs untraced, so the
        // overhead of tracing is measured against the same run.
        const bool traced = p.trace && op % 2 == 0;
        Tracer off(false);
        Tracer &t = traced ? tr : off;
        std::vector<std::pair<std::string, double>> phases;
        auto phase = [&](const char *name, const char *layer, auto &&fn) {
            double t0 = wallSec();
            t.span(name, layer, fn);
            phases.emplace_back(name, wallSec() - t0);
        };

        double probe = speedProbe();
        double t0 = wallSec();
        t.beginOp(op, "release-cold op");
        std::optional<buildsys::Workflow> wf;
        t.span("Workflow::Workflow", "build", [&] { wf.emplace(cfg); });
        phase("Workflow::program", "workload", [&] { wf->program(); });
        phase("Workflow::baseline", "codegen", [&] { wf->baseline(); });
        phase("Workflow::metadataBinary", "linker",
              [&] { wf->metadataBinary(); });
        phase("Workflow::profile", "sim", [&] { wf->profile(); });

        // Relink: profile in hand -> verified PO.  Untraced, one call
        // pulls WPA, codegen, link and verify as one task graph; traced,
        // each entry point isolates its phase.
        double r0 = wallSec(), c0 = cpuSec();
        if (traced) {
            phase("Workflow::wpa", "propeller", [&] { wf->wpa(); });
            phase("Workflow::propellerBinary", "codegen",
                  [&] { wf->propellerBinary(); });
        }
        phase("Workflow::verifyReport", "analysis",
              [&] { wf->verifyReport(); });
        double rw = wallSec() - r0, rc = cpuSec() - c0;

        phase("Workflow::saveCacheFile", "build",
              [&] { wf->saveCacheFile(image); });
        sim::RunResult base, po;
        t.span("sim::run baseline", "sim",
               [&] { base = sim::run(wf->baseline(), eval); });
        double s0 = wallSec();
        t.span("sim::run po", "sim",
               [&] { po = sim::run(wf->propellerBinary(), eval); });
        double poSimSec = wallSec() - s0;
        t.endOp();
        double wall = wallSec() - t0;

        // ---- Checks ----------------------------------------------------
        bool same = wf->propellerBinary().text == refText[op % kPrograms];
        bool clean = wf->verifyReport().clean();
        bool logical = base.counters.logicalInstructions ==
                           po.counters.logicalInstructions &&
                       base.startupOk && po.startupOk && !base.fault &&
                       !po.fault;
        r.check(same && clean && logical,
                format("release-cold op %llu: PO matches jobs=1 %d, "
                       "verifier clean %d, equal logical work %d",
                       static_cast<unsigned long long>(op), same, clean,
                       logical));

        double cr = static_cast<double>(po.counters.quarterCycles) /
                    static_cast<double>(base.counters.quarterCycles);
        if (!p.trace || !traced) {
            opWall.add(wall, probe);
            relinkWall.add(rw, probe);
            relinkCpu.add(rc, probe);
            ratio.push_back(cr);
            const sched::ScheduleReport &s = wf->relinkSchedule();
            makespan.push_back(s.makespanSec);
            stealRate.push_back(s.stealHitRate());
            cpuOverWall.push_back(rc / rw);
            r.line(scheduleLine(s, rw));
        }
        (traced ? tracedWall : untracedWall).push_back(wall);
        if (!traced)
            continue;

        // ---- Traced op: per-layer numbers ------------------------------
        genSec.push_back(phases[0].second);
        simSec.push_back(poSimSec);
        minst.push_back(static_cast<double>(po.counters.instructions) /
                        poSimSec / 1e6);
        l1i.push_back(static_cast<double>(po.counters.l1iMisses) /
                      static_cast<double>(base.counters.l1iMisses));
        itlb.push_back(static_cast<double>(po.counters.itlbMisses) /
                       static_cast<double>(base.counters.itlbMisses));
        for (const auto &[name, sec] : phases)
            if (name == "Workflow::saveCacheFile")
                saveSec.push_back(sec);
        struct stat st;
        imageBytes.push_back(
            stat(image.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                          : 0.0);
        layoutHit.push_back(wf->layoutCacheStats().hitRate());
        objectHit.push_back(wf->cacheStats().hitRate());
        r.line(format("traced op %llu:", static_cast<unsigned long long>(op)));
        rho.push_back(modelVsMeasured(r, *wf, phases));

        // Replays on this op's inputs, outside the operation span.
        bool loaded = false;
        loadSec.push_back(tr.replay("Workflow::loadCacheFile", "build", [&] {
            buildsys::Workflow warm(cfg);
            loaded = warm.loadCacheFile(image);
        }));
        r.check(loaded, "release-cold: saved cache image does not load");
        double p2 = 0.0;
        std::vector<elf::ObjectFile> objs =
            compilePhase2(tr, wf->program(), &p2);
        ReplayInputs in;
        in.config = &cfg;
        in.program = &wf->program();
        in.metadata = &wf->metadataBinary();
        in.profile = &wf->profile();
        in.wpa = &wf->wpa();
        in.po = &wf->propellerBinary();
        replayRelink(tr, r, layers, in, objs, p2,
                     modulesOf(wf->program(), wf->wpa().ccProf.clusters, {}),
                     {});
    }

    const size_t n = opWall.size();
    if (!p.trace) {
        r.addTiming("setup_s", setup);
        r.addTiming("op_s.p50", opWall);
        r.addTiming("relink_s.p50", relinkWall);
        r.addTiming("relink_cpu_s.p50", relinkCpu);
        r.add("peak_rss_mb", peakRssMb(), "MB");
        r.add("po_cycles_ratio", median(ratio), "ratio", n);
        return r;
    }

    r.add("workload.generate_s", median(genSec), "s", genSec.size());
    addLayerMetrics(r, layers);
    r.add("sim.run_s", median(simSec), "s", simSec.size());
    r.add("sim.minst_per_s", median(minst), "Minst/s", minst.size());
    r.add("sim.po_l1i_ratio", median(l1i), "ratio");
    r.add("sim.po_itlb_ratio", median(itlb), "ratio");
    r.add("build.cache_save_s", median(saveSec), "s", saveSec.size());
    r.add("build.cache_load_s", median(loadSec), "s", loadSec.size());
    r.add("build.cache_image_bytes", median(imageBytes), "bytes");
    r.add("build.layout_hit_rate", median(layoutHit), "ratio");
    r.add("build.object_hit_rate", median(objectHit), "ratio");
    r.add("sched.relink_cpu_over_wall", median(cpuOverWall), "ratio", n);
    r.add("sched.steal_hit_rate", median(stealRate), "ratio", n);
    r.add("sched.modelled_makespan_s", median(makespan), "s", n);
    r.add("sched.model_rank_corr", median(rho), "ratio", rho.size());
    r.add("trace.overhead_s", median(tracedWall) - median(untracedWall), "s",
          tracedWall.size());
    return r;
}

} // namespace perfbench
