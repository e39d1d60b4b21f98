/**
 * @file
 * fleet-serve: a fleet::FleetService over clang (multi-modal functions
 * exercise the stale matcher) with 64 simulated machines, a release
 * schedule that pushes a new version every few epochs, and a light
 * seeded transport-chaos schedule.  Closed loop: one driver calls
 * stepEpoch() back to back; one operation is one epoch.
 */

#include <cstdio>
#include <sys/stat.h>

#include "faultinject/chaos.h"
#include "layers.h"
#include "profile/profile.h"
#include "propeller/addr_map_index.h"
#include "propeller/profile_mapper.h"
#include "service/fleet.h"
#include "sim/machine.h"
#include "stale/stale.h"
#include "support/rng.h"

namespace perfbench {

using namespace propeller;

namespace {

/** A new version ships every kReleaseEvery epochs of a session. */
constexpr uint32_t kReleaseEvery = 6;

/** Epochs per session (before its drain). */
constexpr uint32_t kSessionEpochs = 36;

/**
 * Fleets drawn from the seed per run, one per session in turn.  Epoch
 * cost follows each fleet's version mix, so a run averages over more
 * fleets than the kPrograms other workloads use.
 */
constexpr uint32_t kFleets = 6;

/**
 * Chaos while measuring, then a calm drain: the schedule's window is
 * fixed at construction, but the run's length is set by the clock, so
 * the drain swaps in a fault-free schedule that still counts the
 * arrival inversions the service's own shuffle produces.
 */
class PhasedChaos : public fleet::FleetChaosHooks
{
  public:
    PhasedChaos(const faultinject::ChaosSpec &storm, uint64_t seed)
        : storm_(storm), calm_(calmSpec(seed))
    {
    }

    bool draining = false;

    void
    onWireShards(uint32_t epoch, std::vector<fleet::WireShard> &wire) override
    {
        (draining ? calm_ : storm_).onWireShards(epoch, wire);
    }

    const faultinject::ChaosStats &storm() const { return storm_.stats(); }
    const faultinject::ChaosStats &calm() const { return calm_.stats(); }

  private:
    static faultinject::ChaosSpec
    calmSpec(uint64_t seed)
    {
        faultinject::ChaosSpec s;
        s.seed = seed;
        return s;
    }

    faultinject::ChaosSchedule storm_;
    faultinject::ChaosSchedule calm_;
};

faultinject::ChaosSpec
chaosSpec(uint64_t seed)
{
    faultinject::ChaosSpec s;
    s.seed = seed;
    s.dropRate = 0.04;
    s.dupRate = 0.04;
    s.delayRate = 0.04;
    s.corruptRate = 0.03;
    s.reorderRate = 0.05;
    s.maxDelayEpochs = 2;
    return s;
}

fleet::FleetOptions
fleetOptions(uint64_t seed, const std::string &cache)
{
    fleet::FleetOptions fo;
    fo.base = seededConfig("clang", seed);
    fo.machines = 64;
    fo.versions = 2;
    fo.upgradesPerEpoch = 8;
    // Several shards per machine and epoch, so drops and reorders are
    // observable within a batch.
    fo.shardSamples = 2;
    fo.arrivalShuffleSeed = mix64(seed, 0x5eed);
    fo.cachePath = cache;
    return fo;
}

} // namespace

RunResult
runFleetServe(const RunParams &p)
{
    RunResult r;
    Tracer &tr = *p.tracer;
    const std::string cache = p.outDir + "/fleet-serve.fleet.cache";
    Timing setup;
    Timing epochWall, relinkWall, relinkCpu;
    std::vector<double> ingestWall, tracedWall, untracedWall, relinkModel,
        ratio;
    uint64_t samples = 0, shards = 0;
    double epochSecTotal = 0.0, simSec = 0.0;
    uint32_t shippedVersion = 0;
    faultinject::ChaosStats inj;
    std::unique_ptr<PhasedChaos> chaos;
    std::unique_ptr<fleet::FleetService> svc;
    fleet::FleetOptions fo;
    sim::RunResult base, po;

    // Sessions: a fresh service runs the same kSessionEpochs-epoch
    // release schedule on each of kFleets fleets drawn from the seed in
    // turn (at least one full cycle), so the numbers do not drift with how
    // far a run got.  Building a session's service (version chain and load
    // profiles) is its set-up.
    double deadline = wallSec() + p.seconds;
    uint64_t op = 0;
    for (uint32_t session = 0; session < kFleets || wallSec() < deadline;
         ++session) {
        const uint64_t seed = mix64(p.seed, session % kFleets);
        const uint64_t chaosSeed = mix64(seed, 0xc4a05);
        svc.reset();
        std::remove(cache.c_str());
        double setupProbe = speedProbe();
        double t0 = wallSec();
        svc = std::make_unique<fleet::FleetService>(fleetOptions(seed, cache));
        setup.add(wallSec() - t0, setupProbe);
        fo = svc->options();
        shippedVersion = 0;
        chaos = std::make_unique<PhasedChaos>(chaosSpec(chaosSeed),
                                              chaosSeed);
        // Epochs are too short to probe one by one; a session is short
        // next to the host's drift, so one probe scales all its epochs.
        const double probe = speedProbe();
        svc->setChaosHooks(chaos.get());
        size_t relinksSeen = 0;
        auto step = [&](bool traced) {
            Tracer off(false);
            Tracer &t = traced ? tr : off;
            double t0 = wallSec(), c0 = cpuSec();
            t.beginOp(op++, "fleet-serve epoch");
            t.span("FleetService::stepEpoch", "service",
                   [&] { svc->stepEpoch(); });
            t.endOp();
            double wall = wallSec() - t0, cpu = cpuSec() - c0;
            bool relinked = svc->relinks().size() > relinksSeen;
            relinksSeen = svc->relinks().size();
            if (relinked && !svc->relinks().back().quarantined)
                shippedVersion = svc->targetVersion();
            return std::make_tuple(wall, cpu, relinked);
        };

        for (uint32_t e = 0; e < kSessionEpochs; ++e) {
            // Release schedule: ship a new version and retire every
            // version before the previous target, keeping the chain short.
            if (e > 0 && e % kReleaseEvery == 0) {
                uint32_t prev = svc->targetVersion();
                uint32_t v = svc->addVersion();
                svc->setTargetVersion(v);
                for (uint32_t old = 0; old < prev; ++old)
                    if (!svc->versionRetired(old))
                        svc->retireVersion(old);
            }
            // In a traced run every other release period runs untraced,
            // so the overhead of tracing is measured against the same run
            // and relink epochs (release epochs) land on both sides.
            const bool traced = p.trace && (e / kReleaseEvery) % 2 == 0;
            auto [wall, cpu, relinked] = step(traced);
            const fleet::EpochStats &es = svc->history().back();
            for (const auto &[v, n] : es.samplesByVersion)
                samples += n;
            shards += es.shardsIngested;
            epochSecTotal += wall;
            (traced ? tracedWall : untracedWall).push_back(wall);
            if (traced)
                continue;
            epochWall.add(wall, probe);
            if (!relinked) {
                ingestWall.push_back(wall);
                continue;
            }
            relinkWall.add(wall, probe);
            relinkCpu.add(cpu, probe);
            const sched::ScheduleReport &s = svc->relinks().back().schedule;
            relinkModel.push_back(s.makespanSec);
            r.line(format("  session %u epoch %u relink: %s", session, e,
                          scheduleLine(s, wall).substr(2).c_str()));
        }

        // Drain: fault-free epochs until every delayed shard and every
        // lost batch has been classified, then compare per fault class.
        chaos->draining = true;
        const uint32_t drain =
            chaosSpec(chaosSeed).maxDelayEpochs + fo.decayWindow;
        for (uint32_t i = 0; i < drain; ++i)
            step(false);

        const faultinject::ChaosStats &storm = chaos->storm();
        const fleet::FaultDetection &det = svc->detection();
        const uint64_t inversions =
            storm.arrivalInversions + chaos->calm().arrivalInversions;
        auto classCheck = [&](const char *name, uint64_t injected,
                              uint64_t detected) {
            r.line(format("  session %u chaos %-10s injected %6llu "
                          "detected %6llu",
                          session, name,
                          static_cast<unsigned long long>(injected),
                          static_cast<unsigned long long>(detected)));
            r.check(injected == detected && injected > 0,
                    format("fleet-serve session %u: %s injected %llu, "
                           "detected %llu",
                           session, name,
                           static_cast<unsigned long long>(injected),
                           static_cast<unsigned long long>(detected)));
        };
        classCheck("dropped", storm.shardsDropped, det.losses);
        classCheck("duplicated", storm.shardsDuplicated, det.duplicates);
        classCheck("corrupted", storm.shardsCorrupted, det.corrupt);
        classCheck("delayed", storm.shardsDelayed, det.late + det.expired);
        classCheck("inversions", inversions, det.inversions);
        for (const fleet::RelinkRecord &rec : svc->relinks())
            r.check(!rec.quarantined && rec.verifierClean,
                    format("fleet-serve session %u: relink at epoch %u "
                           "shipped %s",
                           session, rec.epoch,
                           rec.quarantined ? "nothing (quarantined)"
                                           : "an unverified binary"));
        r.check(!svc->relinks().empty(), "fleet-serve: no relink shipped");
        inj = storm;

        // PO quality: the shipped generation against its version.
        const sim::MachineOptions eval = workload::evalOptions(fo.base);
        base = sim::run(svc->versionBinary(shippedVersion), eval);
        double s0 = wallSec();
        po = sim::run(svc->shippedBinary(), eval);
        simSec = wallSec() - s0;
        r.check(base.counters.logicalInstructions ==
                        po.counters.logicalInstructions &&
                    po.startupOk && !po.fault,
                format("fleet-serve session %u: shipped binary and its "
                       "version retire different logical work",
                       session));
        ratio.push_back(static_cast<double>(po.counters.quarterCycles) /
                        static_cast<double>(base.counters.quarterCycles));
    }

    r.line(format("  %zu epochs (%zu relinks), %llu samples in %.3f s of "
                  "epochs",
                  epochWall.size(), relinkWall.size(),
                  static_cast<unsigned long long>(samples), epochSecTotal));

    if (!p.trace) {
        r.addTiming("setup_s", setup);
        r.addTiming("op_s.p50", epochWall);
        r.addTiming("relink_s.p50", relinkWall);
        r.addTiming("relink_cpu_s.p50", relinkCpu);
        r.add("peak_rss_mb", peakRssMb(), "MB");
        r.add("po_cycles_ratio", median(ratio), "ratio", ratio.size());
        return r;
    }

    // ---- Traced run: replays on the shipped generation's inputs ---------
    const uint32_t tv = shippedVersion;
    const ir::Program &prog = svc->versionProgram(tv);
    const linker::Executable &vb = svc->versionBinary(tv);
    double g0 = wallSec();
    tr.replay("workload::generate", "workload",
              [&] { workload::generate(fo.base); });
    double genSec = wallSec() - g0;

    sim::RunResult prof;
    double p0 = wallSec();
    tr.replay("sim::run profile", "sim", [&] {
        prof = sim::run(vb, workload::profileOptions(fo.base));
    });
    double profSec = wallSec() - p0;

    // Stale matching: the previous version's profile onto the target.
    double matchSec = 0.0, inferSec = 0.0, blockRate = 0.0;
    if (tv > 0) {
        const linker::Executable &old = svc->versionBinary(tv - 1);
        sim::RunResult oldProf =
            sim::run(old, workload::profileOptions(fo.base));
        core::AddrMapIndex oldIndex(old), newIndex(vb);
        profile::AggregationOptions ao;
        ao.threads = fo.base.jobs;
        core::WholeProgramDcfg dcfg =
            core::buildDcfg(profile::aggregate(oldProf.profile, ao), oldIndex);
        stale::StaleMatchResult match;
        matchSec = tr.replay("stale::matchStaleProfile", "stale", [&] {
            match = stale::matchStaleProfile(dcfg, oldIndex, newIndex);
        });
        inferSec = tr.replay("stale::inferStaleCounts", "stale", [&] {
            stale::inferStaleCounts(match, newIndex);
        });
        blockRate = match.stats.blockMatchRate();
    }

    LayerTimes layers;
    std::vector<elf::ObjectFile> phase2 = compilePhase2(tr, prog, nullptr);
    ReplayInputs in;
    in.config = &fo.base;
    in.program = &prog;
    in.metadata = &vb;
    in.profile = &prof.profile;
    in.dcfg = &svc->lastRelinkDcfg();
    in.wpa = &svc->lastRelinkWpa();
    in.po = &svc->shippedBinary();
    replayRelink(tr, r, layers, in, phase2, 0.0,
                 modulesOf(prog, in.wpa->ccProf.clusters, {}), {});

    // Cache image I/O on the service's persisted image.
    double loadSec = 0.0, saveSec = 0.0;
    {
        buildsys::Workflow wf(fo.base);
        loadSec = tr.replay("Workflow::loadCacheFile", "build",
                            [&] { wf.loadCacheFile(cache); });
        const std::string copy = p.outDir + "/fleet-serve.copy.cache";
        saveSec = tr.replay("Workflow::saveCacheFile", "build",
                            [&] { wf.saveCacheFile(copy); });
        std::remove(copy.c_str());
    }
    struct stat st;
    double imageBytes =
        stat(cache.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;

    uint64_t hits = 0, misses = 0, objHits = 0;
    std::vector<double> steal;
    for (const fleet::RelinkRecord &rec : svc->relinks()) {
        hits += rec.layoutHits + rec.layoutPrimedHits;
        misses += rec.layoutMisses;
        objHits += rec.objectHits;
        steal.push_back(rec.schedule.stealHitRate());
    }
    const double nrel = static_cast<double>(svc->relinks().size());

    r.add("workload.generate_s", genSec, "s");
    addLayerMetrics(r, layers);
    r.add("sim.run_s", simSec, "s");
    r.add("sim.minst_per_s",
          static_cast<double>(prof.counters.instructions) / profSec / 1e6,
          "Minst/s");
    r.add("sim.po_l1i_ratio",
          static_cast<double>(po.counters.l1iMisses) /
              static_cast<double>(base.counters.l1iMisses),
          "ratio");
    r.add("sim.po_itlb_ratio",
          static_cast<double>(po.counters.itlbMisses) /
              static_cast<double>(base.counters.itlbMisses),
          "ratio");
    r.add("stale.match_s", matchSec, "s");
    r.add("stale.infer_s", inferSec, "s");
    r.add("stale.block_match_rate", blockRate, "ratio");
    r.add("build.cache_save_s", saveSec, "s");
    r.add("build.cache_load_s", loadSec, "s");
    r.add("build.cache_image_bytes", imageBytes, "bytes");
    r.add("build.layout_hit_rate",
          hits + misses ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0,
          "ratio");
    r.add("build.object_hit_rate",
          static_cast<double>(objHits) /
              (nrel * static_cast<double>(prog.modules.size())),
          "ratio");
    r.add("sched.relink_cpu_over_wall",
          median(relinkCpu.raw) / median(relinkWall.raw), "ratio", relinkWall.size());
    r.add("sched.steal_hit_rate", median(steal), "ratio", steal.size());
    r.add("sched.modelled_makespan_s", median(relinkModel), "s",
          relinkModel.size());
    r.add("sched.model_rank_corr", spearman(relinkModel, relinkWall.raw),
          "ratio", relinkModel.size());
    r.add("service.ingest_epoch_s", median(ingestWall), "s",
          ingestWall.size());
    r.add("service.relink_epoch_s", median(relinkWall.raw), "s",
          relinkWall.size());
    r.add("service.epoch_s.p90", quantile(epochWall.raw, 0.9), "s",
          epochWall.size());
    r.add("service.ingest_samples_per_s",
          static_cast<double>(samples) / epochSecTotal, "1/s");
    r.add("service.shards", static_cast<double>(shards), "count");
    r.add("service.relinks", nrel, "count");
    r.add("service.chaos_dropped", static_cast<double>(inj.shardsDropped),
          "count");
    r.add("service.chaos_duplicated",
          static_cast<double>(inj.shardsDuplicated), "count");
    r.add("service.chaos_delayed", static_cast<double>(inj.shardsDelayed),
          "count");
    r.add("service.chaos_corrupted",
          static_cast<double>(inj.shardsCorrupted), "count");
    r.add("service.chaos_reorder_swaps",
          static_cast<double>(inj.reorderSwaps), "count");
    r.add("trace.overhead_s", median(tracedWall) - median(untracedWall), "s",
          tracedWall.size());
    return r;
}

} // namespace perfbench
