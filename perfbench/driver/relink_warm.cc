/**
 * @file
 * relink-warm: superroot relinked from a persisted cache image under a
 * lightly drifted profile.  Set-up runs one cold pipeline, persists the
 * cache image and derives a few drifted profiles; one operation is a
 * fresh Workflow that loads the image, takes drifted profile k, and
 * pulls propellerBinary() and verifyReport().  Memo hits bypass Ext-TSP
 * and most codegen; the simulator is not on this path.
 */

#include <cstdio>
#include <map>
#include <sys/stat.h>

#include "layers.h"
#include "propeller/addr_map_index.h"
#include "sim/machine.h"
#include "support/rng.h"

namespace perfbench {

using namespace propeller;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Drifted profiles per run; operation i uses profile i mod kDrifts. */
constexpr size_t kDrifts = 2;

struct Drift
{
    profile::Profile profile;
    std::set<std::string> functions; ///< Functions whose weights moved.
};

/**
 * A lightly drifted profile: for every 10th sampled function (the
 * phase of the stride drawn from @p key), append one single-record
 * sample repeating one of its intra-function branches to a non-entry
 * block start.  Only those functions' branch weights — and so their
 * layout memo keys — change.
 */
Drift
makeDrift(const profile::Profile &prof, const linker::Executable &pm,
          uint64_t key)
{
    core::AddrMapIndex index(pm);
    Drift d;
    d.profile = prof;
    const uint64_t phase = mix64(key) % 10;
    std::set<uint32_t> seen;
    for (const profile::LbrSample &sample : prof.samples) {
        for (uint8_t r = 0; r < sample.count; ++r) {
            const profile::BranchRecord &rec = sample.records[r];
            auto from = index.lookup(rec.from);
            auto to = index.lookup(rec.to);
            if (!from || !to || from->funcIndex != to->funcIndex ||
                to->blockStart != rec.to ||
                to->bbId == index.entryBlock(to->funcIndex))
                continue;
            if (!seen.insert(from->funcIndex).second ||
                seen.size() % 10 != phase)
                continue;
            d.functions.insert(index.functionNames()[from->funcIndex]);
            profile::LbrSample extra;
            extra.records[0] = rec;
            extra.count = 1;
            d.profile.samples.push_back(extra);
        }
    }
    return d;
}

} // namespace

RunResult
runRelinkWarm(const RunParams &p)
{
    RunResult r;
    Tracer &tr = *p.tracer;
    const workload::WorkloadConfig cfg = seededConfig("superroot", p.seed);
    const std::string warmImage = p.outDir + "/relink-warm.cache";
    const std::string phase2Image = p.outDir + "/relink-warm.phase2.cache";

    // ---- Set-up: cold pipeline, both cache images, drifted profiles ----
    Timing setup;
    std::vector<double> saveSec;
    std::vector<Drift> drifts;
    std::optional<linker::Executable> baseline;
    for (int i = 0; i < kSetupReps; ++i) {
        double probe = speedProbe();
        double t0 = wallSec();
        buildsys::Workflow cold(cfg);
        cold.metadataBinary();
        // Phase 2 objects only: the cold reference relinks below start
        // from here, exactly where a fresh cold pipeline would be.
        cold.saveCacheFile(phase2Image);
        cold.propellerBinary();
        double s0 = wallSec();
        cold.saveCacheFile(warmImage);
        saveSec.push_back(wallSec() - s0);
        drifts.clear();
        for (size_t k = 0; k < kDrifts; ++k)
            drifts.push_back(makeDrift(cold.profile(), cold.metadataBinary(),
                                       mix64(p.seed, k)));
        baseline = cold.baseline();
        setup.add(wallSec() - t0, probe);
    }

    Timing opWall, relinkWall, relinkCpu;
    std::vector<double> makespan, stealRate,
        cpuOverWall, tracedWall, untracedWall, genSec, loadSec, layoutHit,
        objectHit, rho;
    std::map<size_t, std::vector<uint8_t>> warmText;
    std::optional<linker::Executable> evalPo; // Drift 0's warm PO.
    LayerTimes layers;
    std::vector<elf::ObjectFile> phase2;

    double deadline = wallSec() + p.seconds;
    // Whole cycles through the drifts, so each weighs the same.
    for (uint64_t op = 0; wallSec() < deadline || op % kDrifts != 0; ++op) {
        const size_t k = op % kDrifts;
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
        t.beginOp(op, "relink-warm op");
        std::optional<buildsys::Workflow> wf;
        bool loaded = false;
        t.span("Workflow::Workflow", "build", [&] { wf.emplace(cfg); });
        phase("Workflow::loadCacheFile", "build",
              [&] { loaded = wf->loadCacheFile(warmImage); });
        t.span("Workflow::overrideProfile", "profile",
               [&] { wf->overrideProfile(drifts[k].profile); });
        phase("Workflow::program", "workload", [&] { wf->program(); });
        phase("Workflow::metadataBinary", "linker",
              [&] { wf->metadataBinary(); });
        double r0 = wallSec(), c0 = cpuSec();
        if (traced) {
            phase("Workflow::wpa", "propeller", [&] { wf->wpa(); });
            phase("Workflow::propellerBinary", "codegen",
                  [&] { wf->propellerBinary(); });
        }
        phase("Workflow::verifyReport", "analysis",
              [&] { wf->verifyReport(); });
        double rw = wallSec() - r0, rc = cpuSec() - c0;
        t.endOp();
        double wall = wallSec() - t0;

        // ---- Checks (byte identity against the cold relink follows) ----
        uint64_t misses = wf->layoutCacheStats().misses;
        bool clean = wf->verifyReport().clean();
        r.check(loaded && clean && misses == drifts[k].functions.size(),
                format("relink-warm op %llu: image loaded %d, verifier "
                       "clean %d, layout misses %llu for %zu drifted "
                       "functions",
                       static_cast<unsigned long long>(op), loaded, clean,
                       static_cast<unsigned long long>(misses),
                       drifts[k].functions.size()));
        const std::vector<uint8_t> &text = wf->propellerBinary().text;
        if (!evalPo)
            evalPo = wf->propellerBinary();
        auto [it, fresh] = warmText.try_emplace(k, text);
        if (!fresh)
            r.check(it->second == text,
                    format("relink-warm op %llu: PO differs from the "
                           "previous warm relink of drift %zu",
                           static_cast<unsigned long long>(op), k));

        if (!p.trace || !traced) {
            opWall.add(wall, probe);
            relinkWall.add(rw, probe);
            relinkCpu.add(rc, probe);
            const sched::ScheduleReport &s = wf->relinkSchedule();
            makespan.push_back(s.makespanSec);
            stealRate.push_back(s.stealHitRate());
            cpuOverWall.push_back(rc / rw);
            r.line(scheduleLine(s, rw));
        }
        (traced ? tracedWall : untracedWall).push_back(wall);
        if (!traced)
            continue;

        genSec.push_back(phases[1].second);
        loadSec.push_back(phases[0].second);
        layoutHit.push_back(wf->layoutCacheStats().hitRate());
        objectHit.push_back(wf->cacheStats().hitRate());
        r.line(format("traced op %llu (drift %zu):",
                      static_cast<unsigned long long>(op), k));
        rho.push_back(modelVsMeasured(r, *wf, phases));

        // Replays: Phase 2 objects once per run (the warm op compiled
        // none of them), then only the drifted functions' work.
        if (phase2.empty())
            phase2 = compilePhase2(tr, wf->program(), nullptr);
        ReplayInputs in;
        in.config = &cfg;
        in.program = &wf->program();
        in.metadata = &wf->metadataBinary();
        in.profile = &wf->profile();
        in.wpa = &wf->wpa();
        in.po = &wf->propellerBinary();
        replayRelink(tr, r, layers, in, phase2, 0.0,
                     modulesOf(wf->program(), wf->wpa().ccProf.clusters,
                               drifts[k].functions),
                     drifts[k].functions);
    }

    // ---- Cold relinks of the same drifted profiles (reference) ----------
    std::vector<double> coldWall, coldMakespan;
    for (const auto &[k, text] : warmText) {
        buildsys::Workflow cold(cfg);
        bool loaded = cold.loadCacheFile(phase2Image);
        cold.overrideProfile(drifts[k].profile);
        cold.metadataBinary();
        double r0 = wallSec();
        cold.verifyReport();
        coldWall.push_back(wallSec() - r0);
        coldMakespan.push_back(cold.relinkSchedule().makespanSec);
        r.check(loaded && cold.propellerBinary().text == text,
                format("relink-warm: warm PO of drift %zu is not "
                       "byte-identical to a cold relink",
                       k));
    }
    double speedMeasured = median(coldWall) / median(relinkWall.raw);
    double speedModelled = median(coldMakespan) / median(makespan);
    r.line(format("  warm over cold relink speedup: measured %.2fx "
                  "(%.3f s -> %.3f s), modelled %.2fx (%.2f s -> %.2f s)",
                  speedMeasured, median(coldWall), median(relinkWall.raw),
                  speedModelled, median(coldMakespan), median(makespan)));

    // ---- PO quality: one evaluation against the baseline ---------------
    const sim::MachineOptions eval = workload::evalOptions(cfg);
    sim::RunResult base = sim::run(*baseline, eval);
    double s0 = wallSec();
    sim::RunResult porun = sim::run(*evalPo, eval);
    double simSec = wallSec() - s0;
    r.check(base.counters.logicalInstructions ==
                    porun.counters.logicalInstructions &&
                porun.startupOk && !porun.fault,
            "relink-warm: PO and baseline retire different logical work");
    double ratio = static_cast<double>(porun.counters.quarterCycles) /
                   static_cast<double>(base.counters.quarterCycles);

    const size_t n = opWall.size();
    if (!p.trace) {
        r.addTiming("setup_s", setup);
        r.addTiming("op_s.p50", opWall);
        r.addTiming("relink_s.p50", relinkWall);
        r.addTiming("relink_cpu_s.p50", relinkCpu);
        r.add("peak_rss_mb", peakRssMb(), "MB");
        r.add("po_cycles_ratio", ratio, "ratio");
        return r;
    }

    struct stat st;
    r.add("workload.generate_s", median(genSec), "s", genSec.size());
    addLayerMetrics(r, layers);
    r.add("sim.run_s", simSec, "s");
    r.add("sim.minst_per_s",
          static_cast<double>(porun.counters.instructions) / simSec / 1e6,
          "Minst/s");
    r.add("sim.po_l1i_ratio",
          static_cast<double>(porun.counters.l1iMisses) /
              static_cast<double>(base.counters.l1iMisses),
          "ratio");
    r.add("sim.po_itlb_ratio",
          static_cast<double>(porun.counters.itlbMisses) /
              static_cast<double>(base.counters.itlbMisses),
          "ratio");
    r.add("build.cache_save_s", median(saveSec), "s", saveSec.size());
    r.add("build.cache_load_s", median(loadSec), "s", loadSec.size());
    r.add("build.cache_image_bytes",
          stat(warmImage.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                            : 0.0,
          "bytes");
    r.add("build.layout_hit_rate", median(layoutHit), "ratio");
    r.add("build.object_hit_rate", median(objectHit), "ratio");
    r.add("sched.relink_cpu_over_wall", median(cpuOverWall), "ratio", n);
    r.add("sched.steal_hit_rate", median(stealRate), "ratio", n);
    r.add("sched.modelled_makespan_s", median(makespan), "s", n);
    r.add("sched.model_rank_corr", median(rho), "ratio", rho.size());
    r.add("sched.warm_speedup_measured", speedMeasured, "x");
    r.add("sched.warm_speedup_modelled", speedModelled, "x");
    r.add("trace.overhead_s", median(tracedWall) - median(untracedWall), "s",
          tracedWall.size());
    return r;
}

} // namespace perfbench
