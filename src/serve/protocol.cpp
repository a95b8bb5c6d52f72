#include "serve/protocol.hpp"

#include <cstring>

#include "common/bytecodec.hpp"
#include "common/error.hpp"

namespace dfamr::serve {

const char* to_string(FrameKind k) {
    switch (k) {
        case FrameKind::Submit: return "Submit";
        case FrameKind::Cancel: return "Cancel";
        case FrameKind::StatsReq: return "StatsReq";
        case FrameKind::Bye: return "Bye";
        case FrameKind::Accepted: return "Accepted";
        case FrameKind::Rejected: return "Rejected";
        case FrameKind::Progress: return "Progress";
        case FrameKind::Done: return "Done";
        case FrameKind::Failed: return "Failed";
        case FrameKind::Stats: return "Stats";
    }
    return "?";
}

amr::Config job_config(const JobSpec& spec) {
    amr::Config cfg;
    if (spec.scenario == "single_sphere") {
        cfg = amr::single_sphere_input();
    } else if (spec.scenario == "four_spheres") {
        cfg = amr::four_spheres_input();
    } else if (spec.scenario == "gaussian" || spec.scenario == "slotted_cylinder" ||
               spec.scenario == "front") {
        // Problem-generator workloads: field-driven refinement instead of
        // object intersection. Same deterministic knobs as the object
        // scenarios, so the loadgen's solo reference run rebuilds them too.
        cfg = amr::single_sphere_input();
        cfg.objects.clear();
        cfg.scenario = spec.scenario;
        cfg.estimator = "gradient";
        cfg.refine_threshold = 0.1;
        cfg.deref_count = 3;
        cfg.tol = 0.25;  // advective drift headroom (see Config::from_cli)
    } else {
        throw ConfigError("unknown scenario '" + spec.scenario +
                          "' (expected single_sphere, four_spheres, gaussian, "
                          "slotted_cylinder or front)");
    }
    // Scale the canonical inputs down to service-sized jobs. Every knob
    // here is a pure function of the spec: the load generator rebuilds the
    // identical Config for its solo reference run.
    cfg.npx = spec.ranks;
    cfg.npy = 1;
    cfg.npz = 1;
    cfg.nx = cfg.ny = cfg.nz = spec.nx;
    cfg.num_vars = spec.num_vars;
    cfg.comm_vars = 4;
    cfg.num_tsteps = spec.num_tsteps;
    cfg.stages_per_ts = 6;
    cfg.checksum_freq = 3;
    cfg.num_refine = spec.num_refine;
    cfg.refine_freq = 2;
    cfg.workers = spec.workers;
    cfg.seed = spec.seed;
    cfg.checkpoint_every = 0;  // serve snapshots via RunControl, not files
    cfg.validate();
    return cfg;
}

void encode_job_spec(const JobSpec& spec, std::vector<std::byte>& out) {
    bytes::Writer w;
    w.str(spec.tenant);
    w.str(spec.scenario);
    w.u32(static_cast<std::uint32_t>(spec.variant));
    w.u64(spec.seed);
    w.i32(spec.ranks);
    w.i32(spec.workers);
    w.i32(spec.nx);
    w.i32(spec.num_vars);
    w.i32(spec.num_tsteps);
    w.i32(spec.num_refine);
    w.i32(spec.weight);
    w.f64(spec.deadline_s);
    out = std::move(w.bytes);
}

JobSpec decode_job_spec(const std::byte* data, std::size_t size) {
    bytes::Reader r(data, size);
    JobSpec spec;
    spec.tenant = r.str();
    spec.scenario = r.str();
    const std::uint32_t v = r.u32();
    DFAMR_REQUIRE(v <= static_cast<std::uint32_t>(amr::Variant::TampiOss),
                  "serve: bad variant in job spec");
    spec.variant = static_cast<amr::Variant>(v);
    spec.seed = r.u64();
    spec.ranks = r.i32();
    spec.workers = r.i32();
    spec.nx = r.i32();
    spec.num_vars = r.i32();
    spec.num_tsteps = r.i32();
    spec.num_refine = r.i32();
    spec.weight = r.i32();
    spec.deadline_s = r.f64();
    return spec;
}

void encode_job_done(const JobDone& d, std::vector<std::byte>& out) {
    bytes::Writer w;
    w.u32(static_cast<std::uint32_t>(d.checksums.size()));
    for (double c : d.checksums) w.f64(c);
    w.f64(d.elapsed_s);
    w.i32(d.suspends);
    w.i32(d.retries);
    out = std::move(w.bytes);
}

JobDone decode_job_done(const std::byte* data, std::size_t size) {
    bytes::Reader r(data, size);
    JobDone d;
    const std::uint32_t n = r.u32();
    r.check_count(n, sizeof(double));
    d.checksums.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) d.checksums.push_back(r.f64());
    d.elapsed_s = r.f64();
    d.suspends = r.i32();
    d.retries = r.i32();
    return d;
}

void encode_job_progress(const JobProgress& p, std::vector<std::byte>& out) {
    bytes::Writer w;
    w.i32(p.ts);
    w.i32(p.total_ts);
    out = std::move(w.bytes);
}

JobProgress decode_job_progress(const std::byte* data, std::size_t size) {
    bytes::Reader r(data, size);
    JobProgress p;
    p.ts = r.i32();
    p.total_ts = r.i32();
    return p;
}

void encode_server_stats(const ServerStats& s, std::vector<std::byte>& out) {
    bytes::Writer w;
    w.u64(s.submitted);
    w.u64(s.accepted);
    w.u64(s.rejected);
    w.u64(s.done);
    w.u64(s.failed);
    w.u64(s.cancelled);
    w.u64(s.suspends);
    w.u64(s.resumes);
    w.u64(s.preemptions);
    w.u64(s.crash_retries);
    w.i32(s.queued);
    w.i32(s.running);
    w.i32(s.suspended);
    w.i32(s.inflight_cost);
    w.i32(s.peak_queue);
    w.i32(s.peak_running);
    out = std::move(w.bytes);
}

ServerStats decode_server_stats(const std::byte* data, std::size_t size) {
    bytes::Reader r(data, size);
    ServerStats s;
    s.submitted = r.u64();
    s.accepted = r.u64();
    s.rejected = r.u64();
    s.done = r.u64();
    s.failed = r.u64();
    s.cancelled = r.u64();
    s.suspends = r.u64();
    s.resumes = r.u64();
    s.preemptions = r.u64();
    s.crash_retries = r.u64();
    s.queued = r.i32();
    s.running = r.i32();
    s.suspended = r.i32();
    s.inflight_cost = r.i32();
    s.peak_queue = r.i32();
    s.peak_running = r.i32();
    return s;
}

bool read_frame(const net::Socket& sock, FrameHeader& header,
                std::vector<std::byte>& payload) {
    std::byte raw[sizeof(FrameHeader)];
    if (!net::read_exactly(sock, raw)) return false;
    std::memcpy(&header, raw, sizeof header);
    DFAMR_REQUIRE(header.magic == kServeMagic, "serve: bad frame magic");
    DFAMR_REQUIRE(header.payload_bytes <= kMaxPayload, "serve: oversized frame payload");
    payload.resize(static_cast<std::size_t>(header.payload_bytes));
    if (!payload.empty()) {
        DFAMR_REQUIRE(net::read_exactly(sock, payload),
                      "serve: connection closed mid-frame");
    }
    return true;
}

void write_frame(const net::Socket& sock, FrameKind kind, std::uint64_t job_id,
                 const std::vector<std::byte>& payload) {
    FrameHeader header;
    header.kind = static_cast<std::uint32_t>(kind);
    header.job_id = job_id;
    header.payload_bytes = payload.size();
    std::vector<std::byte> buf(sizeof header + payload.size());
    std::memcpy(buf.data(), &header, sizeof header);
    if (!payload.empty()) {
        std::memcpy(buf.data() + sizeof header, payload.data(), payload.size());
    }
    net::write_all(sock, buf);
}

std::vector<std::byte> encode_string(const std::string& s) {
    bytes::Writer w;
    w.str(s);
    return std::move(w.bytes);
}

std::string decode_string(const std::byte* data, std::size_t size) {
    bytes::Reader r(data, size);
    return r.str();
}

}  // namespace dfamr::serve
