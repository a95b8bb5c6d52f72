#include "net/shm_transport.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace dfamr::net {

namespace {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// Same batch caps as the TCP writer's coalescing path.
constexpr std::size_t kMaxCoalesceMsgs = 64;
constexpr std::size_t kMaxCoalesceBytes = 256 * 1024;

// How long open_peers waits for a peer's segment. The caller's barrier
// means the segment exists before we look; this only covers scheduling
// skew and slow filesystems.
constexpr auto kOpenDeadline = std::chrono::seconds(20);

// Progress-thread pacing: yield-spin before sleeping on the cv with a short
// timeout (the timeout doubles as the inbound poll period — a peer writing
// into our ring cannot signal our cv). yield() is cheap even on an
// oversubscribed machine — it hands the core straight to a runnable worker
// and comes back with no timer latency — while a timed cv wait parks the
// thread for at least the timer slack on every idle cycle. So the loop
// leans on yield and only falls back to the cv sleep after a long idle
// streak, to avoid burning power on a genuinely quiet transport.
constexpr int kSpinIters = 4000;
constexpr auto kIdleSleep = std::chrono::microseconds(500);
constexpr auto kProbePeriod = std::chrono::milliseconds(50);

}  // namespace

std::uint32_t shm_ring_bytes_from_env() {
    const char* env = std::getenv("DFAMR_SHM_RING_BYTES");
    if (env == nullptr || *env == '\0') return 1 << 20;
    const long long v = std::atoll(env);
    if (v < (1 << 10)) return 1 << 10;
    if (v > (1 << 30)) return 1 << 30;
    return static_cast<std::uint32_t>(v);
}

std::string ShmTransport::segment_name(int from, int to) const {
    return "/dfamr_" + ns_ + "_" + std::to_string(from) + "to" + std::to_string(to);
}

ShmTransport::ShmTransport(const ShmOptions& opts, Sink* sink)
    : rank_(opts.rank),
      nranks_(opts.nranks),
      rndz_threshold_(opts.rendezvous_threshold),
      ring_bytes_(opts.ring_bytes),
      ns_(opts.ns),
      coalesce_(opts.coalesce),
      sink_(sink),
      trace_(opts.trace) {
    DFAMR_REQUIRE(rank_ >= 0 && rank_ < nranks_, "shm: rank out of range");
    DFAMR_REQUIRE(!ns_.empty(), "shm: namespace required");
    peers_.reserve(static_cast<std::size_t>(nranks_));
    for (int i = 0; i < nranks_; ++i) peers_.push_back(std::make_unique<Peer>());
    peer_stats_.resize(static_cast<std::size_t>(nranks_));
    const std::size_t seg_bytes = shm_segment_bytes(ring_bytes_);
    for (int j = 0; j < nranks_; ++j) {
        if (j == rank_) continue;
        const std::string name = segment_name(rank_, j);
        int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
        if (fd < 0 && errno == EEXIST) {
            // Stale segment from a crashed run that reused our namespace.
            ::shm_unlink(name.c_str());
            fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
        }
        DFAMR_REQUIRE(fd >= 0, "shm: shm_open(create " + name + ") failed");
        const bool sized = ::ftruncate(fd, static_cast<off_t>(seg_bytes)) == 0;
        void* base = sized ? ::mmap(nullptr, seg_bytes, PROT_READ | PROT_WRITE,
                                    MAP_SHARED, fd, 0)
                           : MAP_FAILED;
        ::close(fd);
        if (base == MAP_FAILED) ::shm_unlink(name.c_str());
        DFAMR_REQUIRE(sized && base != MAP_FAILED, "shm: mapping " + name + " failed");
        ShmRing::init(base, ring_bytes_, static_cast<std::int32_t>(::getpid()));
        auto& p = *peers_[static_cast<std::size_t>(j)];
        p.rank = j;
        p.out_map = base;
        p.map_bytes = seg_bytes;
        p.out.attach(base, ring_bytes_);
        p.header_buf.resize(kHeaderBytes);
    }
}

ShmTransport::~ShmTransport() {
    if (started_) {
        // 1. Let in-flight rendezvous transfers finish (bounded: a dead peer
        //    never grants its Cts, and the world is aborting anyway). The
        //    progress thread keeps running through every wait below, so it
        //    still grants Cts to peers and drains their frames — mutual
        //    flush-waits cannot deadlock.
        {
            std::unique_lock lk(rndz_m_);
            rndz_cv_.wait_for(lk, std::chrono::seconds(10),
                              [&] { return pending_rndz_.empty(); });
            pending_rndz_.clear();
        }
        // 2. Say goodbye, then wait (bounded) for the queues to drain into
        //    the rings.
        for (auto& p : peers_) {
            if (p->rank >= 0 && p->rank != rank_ && p->open.load()) {
                enqueue(p->rank, header_only_frame(FrameKind::Bye, 0, 0, 0));
            }
        }
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
            bool drained = true;
            {
                std::lock_guard lk(out_m_);
                for (auto& p : peers_) {
                    if (!p->pending.empty()) drained = false;
                }
            }
            if (drained || std::chrono::steady_clock::now() >= deadline) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        // 3. Stop the progress thread.
        stop_.store(true, std::memory_order_release);
        out_cv_.notify_all();
        if (progress_.joinable()) progress_.join();
    }
    for (auto& p : peers_) {
        if (p->in_map != nullptr) ::munmap(p->in_map, p->map_bytes);
        if (p->out_map != nullptr) ::munmap(p->out_map, p->map_bytes);
        if (p->rank >= 0 && p->rank != rank_) {
            // Normally the consumer already unlinked this; ENOENT is fine.
            ::shm_unlink(segment_name(rank_, p->rank).c_str());
        }
    }
}

void ShmTransport::open_peers() {
    DFAMR_REQUIRE(!started_, "shm: open_peers called twice");
    for (int j = 0; j < nranks_; ++j) {
        if (j == rank_) continue;
        const std::string name = segment_name(j, rank_);
        const auto deadline = std::chrono::steady_clock::now() + kOpenDeadline;
        int fd = -1;
        for (;;) {
            fd = ::shm_open(name.c_str(), O_RDWR, 0);
            if (fd >= 0) break;
            DFAMR_REQUIRE(std::chrono::steady_clock::now() < deadline,
                          "shm: peer segment " + name + " never appeared");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        struct stat st{};
        const bool statted = ::fstat(fd, &st) == 0 &&
                             static_cast<std::size_t>(st.st_size) >= sizeof(RingHeader);
        void* base = statted ? ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0)
                             : MAP_FAILED;
        ::close(fd);
        DFAMR_REQUIRE(statted && base != MAP_FAILED, "shm: mapping " + name + " failed");
        // The consumer owns the name: once both sides hold mappings the name
        // is no longer needed, and unlinking here makes cleanup automatic
        // even on crash.
        ::shm_unlink(name.c_str());
        auto* hdr = static_cast<RingHeader*>(base);
        DFAMR_REQUIRE(hdr->magic == kRingMagic &&
                          shm_segment_bytes(hdr->capacity) <=
                              static_cast<std::size_t>(st.st_size),
                      "shm: bad ring header in " + name);
        auto& p = *peers_[static_cast<std::size_t>(j)];
        p.in_map = base;
        p.in.attach(base, hdr->capacity);
        p.open.store(true, std::memory_order_release);
        enqueue(j, header_only_frame(FrameKind::Hello, 0, 0, 0));
    }
    started_ = true;
    progress_ = std::thread([this] { progress_loop(); });
}

void ShmTransport::send_eager(int dest, int tag, FrameBuf frame) {
    DFAMR_REQUIRE(frame->size() >= kHeaderBytes, "shm: frame too small");
    FrameHeader h;
    h.kind = FrameKind::Eager;
    h.src = rank_;
    h.tag = tag;
    h.payload_bytes = frame->size() - kHeaderBytes;
    encode_header(h, frame->data());
    enqueue(dest, std::move(frame));
}

void ShmTransport::send_rendezvous(int dest, int tag, FrameBuf frame,
                                   std::function<void()> on_sent) {
    DFAMR_REQUIRE(frame->size() >= kHeaderBytes, "shm: frame too small");
    const std::uint64_t payload_bytes = frame->size() - kHeaderBytes;
    std::uint32_t seq = 0;
    {
        std::lock_guard lk(rndz_m_);
        seq = next_seq_++;
        FrameHeader data;
        data.kind = FrameKind::Data;
        data.src = rank_;
        data.tag = tag;
        data.seq = seq;
        data.payload_bytes = payload_bytes;
        encode_header(data, frame->data());
        QueuedWrite w;
        w.frame = std::move(frame);
        w.on_written = std::move(on_sent);
        pending_rndz_[{dest, seq}] = std::move(w);
    }
    {
        std::lock_guard lk(counters_m_);
        ++counters_.rendezvous;
    }
    enqueue(dest, header_only_frame(FrameKind::Rts, tag, seq, payload_bytes));
}

NetCounters ShmTransport::counters() const {
    std::lock_guard lk(counters_m_);
    return counters_;
}

std::vector<PeerStats> ShmTransport::peer_counters() const {
    std::lock_guard lk(counters_m_);
    return peer_stats_;
}

void ShmTransport::enqueue(int dest, FrameBuf frame, std::function<void()> on_written) {
    DFAMR_REQUIRE(dest >= 0 && dest < nranks_ && dest != rank_, "shm: bad destination");
    Peer& p = *peers_[static_cast<std::size_t>(dest)];
    // Inline fast path: when nothing is queued for this peer, copy the frame
    // into the ring from the calling thread instead of waking the progress
    // thread — that hop costs a context switch per frame on the latency
    // path. Safe against the lock-free front streaming in flush_outbound
    // because that only runs while pending is non-empty and this only runs
    // while it is empty, both decided under out_m_. With coalescing on,
    // Eager frames still queue (queuing is what gives the batcher adjacent
    // frames to merge) but everything else — Rts/Cts/Data/Bye, which the
    // batcher never merges — goes inline; with the queue empty there is no
    // run to split and nothing to overtake.
    const bool mergeable =
        coalesce_ && decode_header({frame->data(), kHeaderBytes}).kind == FrameKind::Eager;
    if (!mergeable) {
        bool wrote_all = false;
        const std::size_t frame_bytes = frame->size();
        {
            std::lock_guard lk(out_m_);
            if (p.pending.empty() && p.open.load(std::memory_order_acquire)) {
                if (observer_ != nullptr) {
                    observer_->on_frame_sent(dest, decode_header({frame->data(), kHeaderBytes}));
                }
                const std::size_t n = p.out.try_write({frame->data(), frame_bytes});
                if (n == frame_bytes) {
                    wrote_all = true;
                } else {
                    // Ring full mid-frame: park the tail for the progress
                    // thread, already marked as observed.
                    QueuedWrite w;
                    w.frame = std::move(frame);
                    w.on_written = std::move(on_written);
                    w.observed = true;
                    w.offset = n;
                    p.pending.push_back(std::move(w));
                }
            }
        }
        if (wrote_all) {
            {
                std::lock_guard lk(counters_m_);
                ++counters_.frames_sent;
                counters_.bytes_sent += frame_bytes;
                auto& ps = peer_stats_[static_cast<std::size_t>(dest)];
                ps.frames_sent += 1;
                ps.bytes_sent += frame_bytes;
            }
            if (on_written) on_written();
            return;
        }
        if (frame == nullptr) {  // parked the tail above
            out_cv_.notify_all();
            return;
        }
    }
    {
        std::lock_guard lk(out_m_);
        QueuedWrite w;
        w.frame = std::move(frame);
        w.on_written = std::move(on_written);
        p.pending.push_back(std::move(w));
    }
    out_cv_.notify_all();
}

void ShmTransport::drop_pending_for(int peer) {
    std::vector<std::function<void()>> callbacks;
    {
        std::lock_guard lk(rndz_m_);
        for (auto it = pending_rndz_.begin(); it != pending_rndz_.end();) {
            if (it->first.first == peer) {
                if (it->second.on_written) callbacks.push_back(std::move(it->second.on_written));
                it = pending_rndz_.erase(it);
            } else {
                ++it;
            }
        }
    }
    rndz_cv_.notify_all();
    for (auto& cb : callbacks) cb();
}

void ShmTransport::report_gone(Peer& p, bool clean) {
    if (p.gone_reported) return;
    p.gone_reported = true;
    p.open.store(false, std::memory_order_release);
    std::vector<std::function<void()>> callbacks;
    {
        std::lock_guard lk(out_m_);
        for (auto& w : p.pending) {
            if (w.on_written) callbacks.push_back(std::move(w.on_written));
        }
        p.pending.clear();
    }
    for (auto& cb : callbacks) cb();
    drop_pending_for(p.rank);
    sink_->peer_gone(p.rank, clean);
}

void ShmTransport::probe_peers() {
    const auto self = static_cast<std::int32_t>(::getpid());
    for (auto& pp : peers_) {
        auto& p = *pp;
        if (p.rank < 0 || p.rank == rank_ || !p.open.load(std::memory_order_acquire)) continue;
        if (!p.in.valid()) continue;
        const std::int32_t pid = p.in.producer_pid();
        if (pid == self || pid <= 0) continue;  // co-threaded loopback world
        if (::kill(pid, 0) != 0 && errno == ESRCH) report_gone(p, /*clean=*/false);
    }
}

FrameBuf ShmTransport::header_only_frame(FrameKind kind, int tag, std::uint32_t seq,
                                         std::uint64_t aux) {
    auto buf = std::make_shared<std::vector<std::byte>>(kHeaderBytes);
    FrameHeader h;
    h.kind = kind;
    h.src = rank_;
    h.tag = tag;
    h.seq = seq;
    h.aux = aux;
    encode_header(h, buf->data());
    return buf;
}

void ShmTransport::maybe_coalesce(Peer& p) {
    // Called under out_m_. Replace the leading run of complete, unstarted
    // Eager frames with one Coalesced frame. Unlike the TCP writer (which
    // scatter-gathers with writev), composing here costs one extra copy of
    // the sub-payloads — accepted: it buys one ring reservation + one header
    // per batch, and the copy is within-socket-buffer-sized.
    if (p.pending.size() < 2 || p.pending.front().offset != 0) return;
    std::size_t run = 0;
    std::size_t total = 0;
    for (const auto& w : p.pending) {
        if (run >= kMaxCoalesceMsgs || total >= kMaxCoalesceBytes) break;
        const FrameHeader h = decode_header({w.frame->data(), kHeaderBytes});
        if (h.kind != FrameKind::Eager) break;
        total += w.frame->size() - kHeaderBytes;
        ++run;
    }
    if (run < 2) return;
    std::size_t payload_total = run * kSubMsgEntryBytes;
    for (std::size_t i = 0; i < run; ++i) {
        payload_total += padded_sub_bytes(p.pending[i].frame->size() - kHeaderBytes);
    }
    auto buf = std::make_shared<std::vector<std::byte>>(kHeaderBytes + payload_total);
    std::size_t off = kHeaderBytes + run * kSubMsgEntryBytes;
    std::vector<std::function<void()>> callbacks;
    for (std::size_t i = 0; i < run; ++i) {
        auto& w = p.pending[i];
        const FrameHeader sub = decode_header({w.frame->data(), kHeaderBytes});
        SubMsgEntry e;
        e.tag = sub.tag;
        e.bytes = w.frame->size() - kHeaderBytes;
        encode_sub_entry(e, buf->data() + kHeaderBytes + i * kSubMsgEntryBytes);
        if (e.bytes > 0) {
            std::memcpy(buf->data() + off, w.frame->data() + kHeaderBytes,
                        static_cast<std::size_t>(e.bytes));
        }
        off += padded_sub_bytes(static_cast<std::size_t>(e.bytes));
        if (w.on_written) callbacks.push_back(std::move(w.on_written));
    }
    FrameHeader h;
    h.kind = FrameKind::Coalesced;
    h.src = rank_;
    h.aux = run;
    h.payload_bytes = payload_total;
    encode_header(h, buf->data());
    p.pending.erase(p.pending.begin(), p.pending.begin() + static_cast<std::ptrdiff_t>(run));
    QueuedWrite composed;
    composed.frame = std::move(buf);
    composed.is_coalesced = true;
    composed.sub_count = run;
    if (!callbacks.empty()) {
        composed.on_written = [cbs = std::move(callbacks)] {
            for (auto& cb : cbs) cb();
        };
    }
    p.pending.push_front(std::move(composed));
}

bool ShmTransport::flush_outbound() {
    bool worked = false;
    for (auto& pp : peers_) {
        auto& p = *pp;
        if (p.rank < 0 || p.rank == rank_) continue;
        for (;;) {
            QueuedWrite* front = nullptr;
            std::vector<std::function<void()>> dropped;
            {
                std::lock_guard lk(out_m_);
                if (!p.pending.empty()) {
                    if (!p.open.load(std::memory_order_acquire)) {
                        // Peer is gone: complete the sends so nothing hangs.
                        for (auto& w : p.pending) {
                            if (w.on_written) dropped.push_back(std::move(w.on_written));
                        }
                        p.pending.clear();
                    } else {
                        if (coalesce_) maybe_coalesce(p);
                        front = &p.pending.front();
                    }
                }
            }
            for (auto& cb : dropped) cb();
            if (front == nullptr) break;
            // Only this thread mutates queue fronts, and deque growth never
            // invalidates references — safe to stream without the lock held.
            if (front->offset == 0 && !front->observed) {
                front->observed = true;
                if (observer_ != nullptr) {
                    observer_->on_frame_sent(
                        p.rank, decode_header({front->frame->data(), kHeaderBytes}));
                }
            }
            const std::span<const std::byte> rest(front->frame->data() + front->offset,
                                                  front->frame->size() - front->offset);
            const std::size_t n = p.out.try_write(rest);
            if (n > 0) worked = true;
            front->offset += n;
            if (front->offset < front->frame->size()) break;  // ring full for now
            {
                std::lock_guard lk(counters_m_);
                ++counters_.frames_sent;
                counters_.bytes_sent += front->frame->size();
                auto& ps = peer_stats_[static_cast<std::size_t>(p.rank)];
                ps.frames_sent += 1;
                ps.bytes_sent += front->frame->size();
                if (front->is_coalesced) {
                    ++counters_.coalesced_frames_sent;
                    counters_.coalesced_messages += front->sub_count;
                }
            }
            std::function<void()> cb;
            {
                std::lock_guard lk(out_m_);
                cb = std::move(p.pending.front().on_written);
                p.pending.pop_front();
            }
            if (cb) cb();
        }
    }
    return worked;
}

bool ShmTransport::drain_inbound() {
    bool worked = false;
    for (auto& pp : peers_) {
        auto& p = *pp;
        if (p.rank < 0 || p.rank == rank_) continue;
        if (!p.open.load(std::memory_order_acquire) || !p.in.valid()) continue;
        for (;;) {
            if (p.saw_bye) {
                report_gone(p, /*clean=*/true);
                break;
            }
            std::byte* dst = nullptr;
            std::size_t want = 0;
            if (!p.have_header) {
                dst = p.header_buf.data() + p.header_got;
                want = kHeaderBytes - p.header_got;
            } else {
                dst = p.payload->data() + p.payload_got;
                want = p.payload->size() - p.payload_got;
            }
            const std::size_t n = p.in.try_read({dst, want});
            if (n == 0) break;  // drained
            worked = true;
            {
                std::lock_guard lk(counters_m_);
                counters_.bytes_received += n;
                peer_stats_[static_cast<std::size_t>(p.rank)].bytes_received += n;
            }
            if (!p.have_header) {
                p.header_got += n;
                if (p.header_got < kHeaderBytes) continue;
                p.header = decode_header({p.header_buf.data(), kHeaderBytes});
                DFAMR_REQUIRE(p.header.magic == kWireMagic, "shm: corrupt ring stream");
                p.have_header = true;
                p.header_got = 0;
                if (p.header.payload_bytes > 0) {
                    p.payload = std::make_shared<std::vector<std::byte>>(
                        static_cast<std::size_t>(p.header.payload_bytes));
                    p.payload_got = 0;
                    continue;
                }
                p.payload = nullptr;
            } else {
                p.payload_got += n;
                if (p.payload_got < p.payload->size()) continue;
            }
            // A full frame is assembled.
            {
                std::lock_guard lk(counters_m_);
                ++counters_.frames_received;
                peer_stats_[static_cast<std::size_t>(p.rank)].frames_received += 1;
            }
            FrameHeader h = p.header;
            FrameBuf payload = std::move(p.payload);
            p.have_header = false;
            p.payload = nullptr;
            p.payload_got = 0;
            if (observer_ != nullptr) observer_->on_frame_received(p.rank, h);
            handle_frame(p, h, std::move(payload));
        }
    }
    return worked;
}

void ShmTransport::handle_frame(Peer& p, FrameHeader h, FrameBuf payload) {
    switch (h.kind) {
        case FrameKind::Hello:
            DFAMR_REQUIRE(!p.hello_seen && h.src == p.rank, "shm: bad Hello");
            p.hello_seen = true;
            return;
        case FrameKind::Eager: {
            std::span<const std::byte> view =
                payload ? std::span<const std::byte>(*payload) : std::span<const std::byte>{};
            deliver_or_hold(p, h.tag, std::move(payload), view);
            return;
        }
        case FrameKind::Coalesced: {
            const std::span<const std::byte> all =
                payload ? std::span<const std::byte>(*payload) : std::span<const std::byte>{};
            for_each_sub_message(all, h.aux, [&](int tag, std::span<const std::byte> sub) {
                deliver_or_hold(p, tag, FrameBuf(payload), sub);
            });
            return;
        }
        case FrameKind::Rts: {
            HeldFrame slot;
            slot.placeholder = true;
            slot.seq = h.seq;
            p.held[h.tag].push_back(std::move(slot));
            enqueue(p.rank, header_only_frame(FrameKind::Cts, h.tag, h.seq, 0));
            return;
        }
        case FrameKind::Cts: {
            QueuedWrite w;
            {
                std::lock_guard lk(rndz_m_);
                auto it = pending_rndz_.find({p.rank, h.seq});
                DFAMR_REQUIRE(it != pending_rndz_.end(), "shm: Cts for unknown rendezvous");
                w = std::move(it->second);
                pending_rndz_.erase(it);
            }
            rndz_cv_.notify_all();
            enqueue(p.rank, std::move(w.frame), std::move(w.on_written));
            return;
        }
        case FrameKind::Data: {
            auto it = p.held.find(h.tag);
            DFAMR_REQUIRE(it != p.held.end() && !it->second.empty(),
                          "shm: Data with no pending rendezvous");
            bool filled = false;
            for (auto& slot : it->second) {
                if (slot.placeholder && slot.seq == h.seq) {
                    slot.placeholder = false;
                    slot.payload = payload ? std::span<const std::byte>(*payload)
                                           : std::span<const std::byte>{};
                    slot.storage = std::move(payload);
                    filled = true;
                    break;
                }
            }
            DFAMR_REQUIRE(filled, "shm: Data seq matches no placeholder");
            auto& dq = it->second;
            while (!dq.empty() && !dq.front().placeholder) {
                HeldFrame f = std::move(dq.front());
                dq.pop_front();
                sink_->deliver(p.rank, h.tag, std::move(f.storage), f.payload);
            }
            if (dq.empty()) p.held.erase(it);
            return;
        }
        case FrameKind::Bye:
            p.saw_bye = true;
            return;
        default:
            DFAMR_REQUIRE(false, "shm: unexpected frame kind");
    }
}

void ShmTransport::deliver_or_hold(Peer& p, int tag, FrameBuf storage,
                                   std::span<const std::byte> payload) {
    auto it = p.held.find(tag);
    if (it != p.held.end() && !it->second.empty()) {
        HeldFrame f;
        f.storage = std::move(storage);
        f.payload = payload;
        it->second.push_back(std::move(f));
        return;
    }
    sink_->deliver(p.rank, tag, std::move(storage), payload);
}

void ShmTransport::progress_loop() {
    int idle = 0;
    auto last_probe = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_acquire)) {
        const std::int64_t t0 = trace_ ? now_ns() : 0;
        bool worked = flush_outbound();
        worked = drain_inbound() || worked;
        if (worked && trace_) trace_(t0, now_ns());
        const auto now = std::chrono::steady_clock::now();
        if (now - last_probe >= kProbePeriod) {
            last_probe = now;
            probe_peers();
        }
        if (worked) {
            idle = 0;
            continue;
        }
        if (++idle < kSpinIters) {
            std::this_thread::yield();
            continue;
        }
        std::unique_lock lk(out_m_);
        out_cv_.wait_for(lk, kIdleSleep);
    }
}

}  // namespace dfamr::net
