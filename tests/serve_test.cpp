// Tests for the serve plane: DFS1 codecs, admission control, fair-share
// ordering, suspend/resume checksum identity, deadline preemption, crash
// retry, and client-disconnect cleanup.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/variants.hpp"
#include "serve/client.hpp"
#include "serve/job_manager.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace dfamr::serve {
namespace {

JobSpec tiny_spec() {
    JobSpec spec;
    spec.tenant = "t0";
    spec.scenario = "single_sphere";
    spec.variant = amr::Variant::ForkJoin;
    spec.seed = 3;
    spec.ranks = 1;
    spec.workers = 1;
    spec.nx = 8;
    spec.num_vars = 8;
    spec.num_tsteps = 2;
    return spec;
}

std::vector<double> solo_checksums(const JobSpec& spec) {
    core::RunOptions ropts;
    ropts.ignore_launch_env = true;
    return core::run_variant(job_config(spec), spec.variant, nullptr, nullptr, ropts)
        .checksums;
}

// ---- protocol codecs -------------------------------------------------------

TEST(ServeProtocol, JobSpecRoundTrip) {
    JobSpec spec;
    spec.tenant = "acme";
    spec.scenario = "four_spheres";
    spec.variant = amr::Variant::TampiOss;
    spec.seed = 987654321;
    spec.ranks = 3;
    spec.workers = 2;
    spec.nx = 16;
    spec.num_vars = 12;
    spec.num_tsteps = 9;
    spec.num_refine = 3;
    spec.weight = 4;
    spec.deadline_s = 12.5;

    std::vector<std::byte> buf;
    encode_job_spec(spec, buf);
    const JobSpec back = decode_job_spec(buf.data(), buf.size());
    EXPECT_EQ(back.tenant, spec.tenant);
    EXPECT_EQ(back.scenario, spec.scenario);
    EXPECT_EQ(back.variant, spec.variant);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.ranks, spec.ranks);
    EXPECT_EQ(back.workers, spec.workers);
    EXPECT_EQ(back.nx, spec.nx);
    EXPECT_EQ(back.num_vars, spec.num_vars);
    EXPECT_EQ(back.num_tsteps, spec.num_tsteps);
    EXPECT_EQ(back.num_refine, spec.num_refine);
    EXPECT_EQ(back.weight, spec.weight);
    EXPECT_DOUBLE_EQ(back.deadline_s, spec.deadline_s);
    EXPECT_EQ(back.cost(), 6);
}

TEST(ServeProtocol, DoneProgressStatsRoundTrip) {
    JobDone d;
    d.checksums = {1.5, -2.25, 1e300};
    d.elapsed_s = 0.75;
    d.suspends = 3;
    d.retries = 1;
    std::vector<std::byte> buf;
    encode_job_done(d, buf);
    const JobDone d2 = decode_job_done(buf.data(), buf.size());
    EXPECT_EQ(d2.checksums, d.checksums);
    EXPECT_DOUBLE_EQ(d2.elapsed_s, d.elapsed_s);
    EXPECT_EQ(d2.suspends, d.suspends);
    EXPECT_EQ(d2.retries, d.retries);

    JobProgress p{5, 9};
    buf.clear();
    encode_job_progress(p, buf);
    const JobProgress p2 = decode_job_progress(buf.data(), buf.size());
    EXPECT_EQ(p2.ts, 5);
    EXPECT_EQ(p2.total_ts, 9);

    ServerStats s;
    s.submitted = 100;
    s.done = 90;
    s.preemptions = 4;
    s.peak_queue = 33;
    buf.clear();
    encode_server_stats(s, buf);
    const ServerStats s2 = decode_server_stats(buf.data(), buf.size());
    EXPECT_EQ(s2.submitted, 100u);
    EXPECT_EQ(s2.done, 90u);
    EXPECT_EQ(s2.preemptions, 4u);
    EXPECT_EQ(s2.peak_queue, 33);
}

TEST(ServeProtocol, JobDoneCountBeyondFrameIsRejected) {
    // A 4-byte frame claiming 2^32 - 1 checksums must not reach reserve().
    const std::uint32_t n = 0xFFFFFFFFu;
    std::vector<std::byte> buf(sizeof n);
    std::memcpy(buf.data(), &n, sizeof n);
    EXPECT_THROW(decode_job_done(buf.data(), buf.size()), Error);
}

// ---- admission control -----------------------------------------------------

TEST(ServeAdmission, RejectsWhenQueueFull) {
    JobManagerOptions opts;
    opts.pool_workers = 1;
    opts.max_queue = 3;
    opts.max_inflight_cost = 1;
    opts.start_paused = true;  // nothing dispatches: queue fills exactly
    JobManager mgr(opts);

    const JobSpec spec = tiny_spec();
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(mgr.submit(spec, nullptr).accepted);
    }
    const SubmitResult r = mgr.submit(spec, nullptr);
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.reason.find("queue"), std::string::npos) << r.reason;
    EXPECT_EQ(mgr.stats().rejected, 1u);
}

TEST(ServeAdmission, RejectsCostThatCanNeverRun) {
    JobManagerOptions opts;
    opts.pool_workers = 1;
    opts.max_inflight_cost = 4;
    opts.start_paused = true;
    JobManager mgr(opts);

    JobSpec spec = tiny_spec();
    spec.ranks = 3;
    spec.workers = 2;  // cost 6 > budget 4: would starve forever
    const SubmitResult r = mgr.submit(spec, nullptr);
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.reason.find("cost"), std::string::npos) << r.reason;
}

// ---- fair scheduling -------------------------------------------------------

TEST(ServeFairness, DeficitRoundRobinInterleavesTenants) {
    JobManagerOptions opts;
    opts.pool_workers = 1;
    opts.max_inflight_cost = 1;  // strictly one job at a time
    opts.start_paused = true;
    JobManager mgr(opts);

    lockdep::Mutex order_mutex{"test.order"};
    std::vector<std::string> dispatch_order;
    // Record each job's tenant at its FIRST Running event (= its dispatch).
    const auto record = [&](const std::string& tenant) {
        auto seen = std::make_shared<std::atomic<bool>>(false);
        return [&, tenant, seen](const JobEvent& ev) {
            if (ev.state == JobState::Running && !seen->exchange(true)) {
                std::lock_guard lock(order_mutex);
                dispatch_order.push_back(tenant);
            }
        };
    };

    // Tenant "a" floods 6 jobs; tenant "b" submits 3. Fair share means "b"
    // is not starved behind the flood: in any prefix of the dispatch order
    // the imbalance stays bounded by one visit.
    JobSpec a = tiny_spec();
    a.tenant = "a";
    JobSpec b = tiny_spec();
    b.tenant = "b";
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(mgr.submit(a, record("a")).id);
    for (int i = 0; i < 3; ++i) ids.push_back(mgr.submit(b, record("b")).id);
    mgr.unpause();
    mgr.drain();
    for (const std::uint64_t id : ids) {
        EXPECT_EQ(mgr.wait(id).state, JobState::Done);
    }

    ASSERT_EQ(dispatch_order.size(), 9u);
    // While both tenants have queued jobs (the first 6 dispatches), the
    // round-robin alternates: per-tenant counts differ by at most 1.
    int na = 0;
    int nb = 0;
    for (int i = 0; i < 6; ++i) {
        (dispatch_order[static_cast<std::size_t>(i)] == "a" ? na : nb)++;
        EXPECT_LE(std::abs(na - nb), 1)
            << "prefix " << i << ": a=" << na << " b=" << nb;
    }
    EXPECT_EQ(nb, 3);  // "b" fully drained within the contested prefix
}

TEST(ServeFairness, WeightedTenantGetsProportionalShare) {
    JobManagerOptions opts;
    opts.pool_workers = 1;
    opts.max_inflight_cost = 1;
    opts.start_paused = true;
    JobManager mgr(opts);

    lockdep::Mutex order_mutex{"test.order"};
    std::vector<std::string> dispatch_order;
    const auto record = [&](const std::string& tenant) {
        auto seen = std::make_shared<std::atomic<bool>>(false);
        return [&, tenant, seen](const JobEvent& ev) {
            if (ev.state == JobState::Running && !seen->exchange(true)) {
                std::lock_guard lock(order_mutex);
                dispatch_order.push_back(tenant);
            }
        };
    };

    JobSpec heavy = tiny_spec();
    heavy.tenant = "heavy";
    heavy.weight = 2;
    JobSpec light = tiny_spec();
    light.tenant = "light";  // weight 1
    for (int i = 0; i < 6; ++i) mgr.submit(heavy, record("heavy"));
    for (int i = 0; i < 6; ++i) mgr.submit(light, record("light"));
    mgr.unpause();
    mgr.drain();

    ASSERT_EQ(dispatch_order.size(), 12u);
    // In the contested window (both tenants backlogged: heavy drains its 6
    // by dispatch 9 at the latest) the 2:1 weighting shows up as heavy
    // having ~2x light's dispatches, never fewer.
    int heavy_n = 0;
    int light_n = 0;
    for (int i = 0; i < 9; ++i) {
        (dispatch_order[static_cast<std::size_t>(i)] == "heavy" ? heavy_n
                                                                : light_n)++;
    }
    EXPECT_GE(heavy_n, light_n) << "heavy=" << heavy_n << " light=" << light_n;
    EXPECT_GE(heavy_n, 5) << "weight-2 tenant starved: " << heavy_n << "/9";
}

// ---- suspend / resume ------------------------------------------------------

TEST(ServeSuspend, TimeSlicedJobChecksumsMatchSoloRun) {
    const JobSpec spec = [] {
        JobSpec s = tiny_spec();
        s.num_tsteps = 6;
        s.variant = amr::Variant::TampiOss;
        return s;
    }();
    const std::vector<double> solo = solo_checksums(spec);

    JobManagerOptions opts;
    opts.pool_workers = 2;
    opts.slice_tsteps = 1;  // forced suspend at every timestep boundary
    JobManager mgr(opts);
    const SubmitResult r = mgr.submit(spec, nullptr);
    ASSERT_TRUE(r.accepted);
    const JobEvent final = mgr.wait(r.id);
    EXPECT_EQ(final.state, JobState::Done);
    EXPECT_GE(final.suspends, 4) << "slice=1 over 6 tsteps must suspend repeatedly";
    EXPECT_EQ(final.checksums, solo) << "resume broke bit-identical checksums";
}

TEST(ServeSuspend, ManualSuspendParksUntilResume) {
    JobSpec spec = tiny_spec();
    spec.num_tsteps = 40;  // long enough to catch mid-flight
    const std::vector<double> solo = solo_checksums(spec);

    JobManagerOptions opts;
    opts.pool_workers = 1;
    JobManager mgr(opts);
    const SubmitResult r = mgr.submit(spec, nullptr);
    ASSERT_TRUE(r.accepted);

    // Wait for it to start, then park it.
    while (mgr.state(r.id) == JobState::Queued) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(mgr.suspend(r.id));
    for (int i = 0; i < 2000 && mgr.state(r.id) != JobState::Suspended; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(mgr.state(r.id), JobState::Suspended);
    // Parked: it must stay suspended, not sneak back into the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(mgr.state(r.id), JobState::Suspended);

    ASSERT_TRUE(mgr.resume(r.id));
    const JobEvent final = mgr.wait(r.id);
    EXPECT_EQ(final.state, JobState::Done);
    EXPECT_GE(final.suspends, 1);
    EXPECT_EQ(final.checksums, solo);
}

// ---- deadline preemption ---------------------------------------------------

TEST(ServeDeadline, UrgentJobPreemptsBestEffort) {
    JobManagerOptions opts;
    opts.pool_workers = 1;
    opts.max_inflight_cost = 1;  // the deadline job can only run by preempting
    JobManager mgr(opts);

    JobSpec hog = tiny_spec();
    hog.tenant = "hog";
    hog.num_tsteps = 100;
    const SubmitResult hog_r = mgr.submit(hog, nullptr);
    ASSERT_TRUE(hog_r.accepted);
    while (mgr.state(hog_r.id) == JobState::Queued) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    JobSpec urgent = tiny_spec();
    urgent.tenant = "urgent";
    urgent.deadline_s = 5;
    const SubmitResult urgent_r = mgr.submit(urgent, nullptr);
    ASSERT_TRUE(urgent_r.accepted);

    const JobEvent urgent_final = mgr.wait(urgent_r.id);
    EXPECT_EQ(urgent_final.state, JobState::Done);
    // The hog was still mid-flight when the urgent job finished.
    EXPECT_FALSE(is_terminal(mgr.state(hog_r.id)))
        << "deadline job should have finished first";
    EXPECT_GE(mgr.stats().preemptions, 1u);

    const JobEvent hog_final = mgr.wait(hog_r.id);
    EXPECT_EQ(hog_final.state, JobState::Done);
    EXPECT_GE(hog_final.suspends, 1) << "the hog must have been suspended";
}

// ---- crash recovery --------------------------------------------------------

TEST(ServeCrashRetry, InjectedCrashRetriesToIdenticalChecksums) {
    JobSpec spec = tiny_spec();
    spec.variant = amr::Variant::TampiOss;
    spec.ranks = 2;
    spec.num_tsteps = 6;
    const std::vector<double> solo = solo_checksums(spec);

    JobManagerOptions opts;
    opts.pool_workers = 2;
    opts.max_inflight_cost = 4;
    opts.slice_tsteps = 3;  // an image exists when the crash lands
    opts.faults.crash_rank = 0;
    opts.faults.crash_after_sends = 60;
    opts.faults.seed = 7;
    JobManager mgr(opts);

    const SubmitResult r = mgr.submit(spec, nullptr);
    ASSERT_TRUE(r.accepted);
    const JobEvent final = mgr.wait(r.id);
    EXPECT_EQ(final.state, JobState::Done) << final.error;
    EXPECT_GE(final.retries, 1) << "the injected crash never fired";
    EXPECT_EQ(final.checksums, solo) << "crash recovery broke checksum identity";
    EXPECT_GE(mgr.stats().crash_retries, 1u);
}

// ---- cancellation and disconnect cleanup -----------------------------------

TEST(ServeCancel, QueuedAndRunningJobsCancel) {
    JobManagerOptions opts;
    opts.pool_workers = 1;
    opts.max_inflight_cost = 1;
    JobManager mgr(opts);

    JobSpec slow = tiny_spec();
    slow.num_tsteps = 200;
    const SubmitResult running = mgr.submit(slow, nullptr);
    const SubmitResult queued = mgr.submit(slow, nullptr);
    ASSERT_TRUE(running.accepted);
    ASSERT_TRUE(queued.accepted);
    while (mgr.state(running.id) == JobState::Queued) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    EXPECT_TRUE(mgr.cancel(queued.id));
    EXPECT_TRUE(mgr.cancel(running.id));
    EXPECT_EQ(mgr.wait(queued.id).state, JobState::Cancelled);
    EXPECT_EQ(mgr.wait(running.id).state, JobState::Cancelled);
    EXPECT_FALSE(mgr.cancel(running.id)) << "cancel of a terminal job is a no-op";
    EXPECT_EQ(mgr.stats().cancelled, 2u);
}

TEST(ServeServer, DisconnectCancelsJobsAndServerKeepsServing) {
    ServerOptions opts;
    opts.manager.pool_workers = 1;
    opts.manager.max_inflight_cost = 1;
    Server server(opts);
    const net::HostPort addr{"127.0.0.1", server.port()};

    {
        // First client submits slow jobs and vanishes without waiting.
        Client doomed(addr);
        JobSpec slow = tiny_spec();
        slow.num_tsteps = 500;
        doomed.submit(slow);
        doomed.submit(slow);
        // Let the Submits reach the manager before dropping the connection.
        for (int i = 0; i < 2000 && server.stats().accepted < 2; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_EQ(server.stats().accepted, 2u);
    }  // ~Client closes the socket: the server must cancel both jobs

    for (int i = 0; i < 5000; ++i) {
        const ServerStats s = server.stats();
        if (s.cancelled == 2 && s.running == 0 && s.queued == 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const ServerStats after = server.stats();
    EXPECT_EQ(after.cancelled, 2u) << "disconnect did not cancel orphaned jobs";
    EXPECT_EQ(after.running, 0);
    EXPECT_EQ(after.queued, 0);

    // The server is still healthy for new clients.
    Client fresh(addr);
    const std::uint64_t ref = fresh.submit(tiny_spec());
    const ClientJobResult r = fresh.wait(ref);
    EXPECT_TRUE(r.accepted);
    EXPECT_TRUE(r.done) << r.error;
    fresh.close();
    server.stop();
    EXPECT_EQ(server.stats().done, 1u);
}

TEST(ServeServer, ScenarioJobOverTheWireMatchesSoloRun) {
    // A problem-generator scenario submitted by name over DFS1: the server
    // maps "gaussian" to the estimator-driven config and the checksums must
    // match the solo run of that same derived config.
    ServerOptions opts;
    opts.manager.pool_workers = 2;
    Server server(opts);
    const net::HostPort addr{"127.0.0.1", server.port()};

    JobSpec spec = tiny_spec();
    spec.scenario = "gaussian";
    spec.num_tsteps = 3;
    const std::vector<double> solo = solo_checksums(spec);
    ASSERT_FALSE(solo.empty());

    Client client(addr);
    const ClientJobResult r = client.wait(client.submit(spec));
    ASSERT_TRUE(r.accepted);
    ASSERT_TRUE(r.done) << r.error;
    EXPECT_EQ(r.checksums, solo);

    // Unknown scenario names are rejected at submit, not crashed on.
    JobSpec bad = spec;
    bad.scenario = "warp_drive";
    const ClientJobResult rejected = client.wait(client.submit(bad));
    EXPECT_FALSE(rejected.accepted);
    client.close();
    server.stop();
}

TEST(ServeServer, EndToEndChecksumsOverTheWire) {
    ServerOptions opts;
    opts.manager.pool_workers = 2;
    opts.manager.slice_tsteps = 2;  // exercise suspend/resume over the wire
    Server server(opts);
    const net::HostPort addr{"127.0.0.1", server.port()};

    JobSpec spec = tiny_spec();
    spec.num_tsteps = 6;
    const std::vector<double> solo = solo_checksums(spec);

    Client client(addr);
    std::vector<std::uint64_t> refs;
    for (int i = 0; i < 4; ++i) refs.push_back(client.submit(spec));
    for (const std::uint64_t ref : refs) {
        const ClientJobResult r = client.wait(ref);
        ASSERT_TRUE(r.accepted);
        ASSERT_TRUE(r.done) << r.error;
        EXPECT_EQ(r.checksums, solo);
        EXPECT_GE(r.suspends, 1);
        EXPECT_GT(r.progress_frames, 0);
    }
    const ServerStats s = client.stats();
    EXPECT_EQ(s.done, 4u);
    client.close();
    server.stop();
}

}  // namespace
}  // namespace dfamr::serve
