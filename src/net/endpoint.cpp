#include "net/endpoint.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.hpp"

namespace dfamr::net {

namespace {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// Writes a whole buffer to a non-blocking socket, parking in poll(POLLOUT)
// whenever the kernel buffer is full. Returns false if the peer is gone.
bool write_frame(const Socket& s, std::span<const std::byte> buf) {
    std::size_t sent = 0;
    while (sent < buf.size()) {
        const ssize_t n = ::send(s.fd(), buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            pollfd pfd{s.fd(), POLLOUT, 0};
            ::poll(&pfd, 1, 100);
            continue;
        }
        return false;  // EPIPE / ECONNRESET: peer died
    }
    return true;
}

// Scatter-gather variant of write_frame: sends every iovec in order,
// consuming entries as the kernel accepts bytes. Mutates `iov`.
bool write_vectored(const Socket& s, std::vector<iovec>& iov) {
    std::size_t idx = 0;
    while (idx < iov.size()) {
        msghdr msg{};
        msg.msg_iov = iov.data() + idx;
        msg.msg_iovlen = iov.size() - idx;
        const ssize_t n = ::sendmsg(s.fd(), &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd pfd{s.fd(), POLLOUT, 0};
                ::poll(&pfd, 1, 100);
                continue;
            }
            return false;
        }
        std::size_t left = static_cast<std::size_t>(n);
        while (idx < iov.size() && left >= iov[idx].iov_len) {
            left -= iov[idx].iov_len;
            ++idx;
        }
        if (idx < iov.size() && left > 0) {
            iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
            iov[idx].iov_len -= left;
        }
    }
    return true;
}

// Alignment padding between coalesced sub-payloads (at most 7 bytes).
constexpr std::array<std::byte, kSubMsgAlign> kZeroPad{};

// Coalescing batch caps: enough to amortize headers and syscalls without
// letting one batch hog the writer or build giant iovec arrays.
constexpr std::size_t kMaxCoalesceMsgs = 64;
constexpr std::size_t kMaxCoalesceBytes = 256 * 1024;

}  // namespace

FrameBuf make_frame(const void* payload, std::size_t payload_bytes) {
    auto buf = std::make_shared<std::vector<std::byte>>(kHeaderBytes + payload_bytes);
    if (payload_bytes > 0) {
        std::memcpy(buf->data() + kHeaderBytes, payload, payload_bytes);
    }
    return buf;
}

Endpoint::Endpoint(int rank, int nranks, std::size_t rendezvous_threshold, Sink* sink,
                   ProgressTrace trace, bool coalesce)
    : rank_(rank),
      nranks_(nranks),
      rndz_threshold_(rendezvous_threshold),
      sink_(sink),
      trace_(std::move(trace)),
      coalesce_(coalesce) {
    DFAMR_REQUIRE(rank >= 0 && rank < nranks, "net: rank out of range");
    auto [sock, port] = listen_on("0.0.0.0", 0, nranks + 8);
    listener_ = std::move(sock);
    listen_port_ = port;
    conns_.reserve(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) conns_.push_back(std::make_unique<Connection>());
    peers_.resize(static_cast<std::size_t>(nranks));
    DFAMR_REQUIRE(::pipe(wake_pipe_) == 0, "net: pipe() failed");
    const int flags = ::fcntl(wake_pipe_[0], F_GETFL, 0);
    DFAMR_REQUIRE(flags >= 0 && ::fcntl(wake_pipe_[0], F_SETFL, flags | O_NONBLOCK) == 0,
                  "net: pipe fcntl failed");
}

Endpoint::~Endpoint() {
    if (mesh_started_) {
        // 1. Let in-flight rendezvous transfers finish (bounded: a dead peer
        //    never grants its Cts, and the world is aborting anyway).
        {
            std::unique_lock lk(rndz_m_);
            rndz_cv_.wait_for(lk, std::chrono::seconds(10),
                              [&] { return pending_rndz_.empty(); });
            pending_rndz_.clear();
        }
        // 2. Say goodbye, then drain the write queue and stop the writer.
        for (auto& c : conns_) {
            if (c->peer != rank_ && c->open.load()) {
                enqueue(c->peer, header_only_frame(FrameKind::Bye, 0, 0, 0));
            }
        }
        {
            std::lock_guard lk(write_m_);
            writer_shutdown_ = true;
        }
        write_cv_.notify_all();
        if (writer_.joinable()) writer_.join();
        // 3. Stop the reader.
        reader_stop_.store(true, std::memory_order_release);
        wake_reader();
        if (reader_.joinable()) reader_.join();
    }
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Endpoint::connect_mesh(const std::vector<HostPort>& table) {
    DFAMR_REQUIRE(!mesh_started_, "net: connect_mesh called twice");
    DFAMR_REQUIRE(static_cast<int>(table.size()) == nranks_, "net: bad address table");
    std::uint64_t retries = 0;
    // Dial every lower rank and identify ourselves with a Hello frame.
    for (int peer = 0; peer < rank_; ++peer) {
        Socket s = dial(table[static_cast<std::size_t>(peer)], /*attempts=*/250, &retries);
        FrameHeader hello;
        hello.kind = FrameKind::Hello;
        hello.src = rank_;
        std::array<std::byte, kHeaderBytes> buf;
        encode_header(hello, buf.data());
        write_all(s, buf);
        if (observer_ != nullptr) observer_->on_frame_sent(peer, hello);
        auto& c = *conns_[static_cast<std::size_t>(peer)];
        c.peer = peer;
        c.sock = std::move(s);
        c.open.store(true);
    }
    // Accept from every higher rank; the Hello tells us who dialed.
    for (int i = rank_ + 1; i < nranks_; ++i) {
        Socket s = accept_one(listener_);
        std::array<std::byte, kHeaderBytes> buf;
        DFAMR_REQUIRE(read_exactly(s, buf), "net: EOF before Hello");
        const FrameHeader hello = decode_header(buf);
        DFAMR_REQUIRE(hello.magic == kWireMagic && hello.kind == FrameKind::Hello,
                      "net: bad Hello frame");
        DFAMR_REQUIRE(hello.src > rank_ && hello.src < nranks_, "net: Hello from bad rank");
        if (observer_ != nullptr) observer_->on_frame_received(hello.src, hello);
        auto& c = *conns_[static_cast<std::size_t>(hello.src)];
        DFAMR_REQUIRE(!c.open.load(), "net: duplicate Hello from rank " + std::to_string(hello.src));
        c.peer = hello.src;
        c.sock = std::move(s);
        c.open.store(true);
    }
    {
        std::lock_guard lk(counters_m_);
        counters_.reconnects += retries;
        // One Hello per dialed connection, each received once on the other side.
        counters_.frames_sent += static_cast<std::uint64_t>(rank_);
        counters_.bytes_sent += static_cast<std::uint64_t>(rank_) * kHeaderBytes;
        counters_.frames_received += static_cast<std::uint64_t>(nranks_ - 1 - rank_);
        counters_.bytes_received += static_cast<std::uint64_t>(nranks_ - 1 - rank_) * kHeaderBytes;
        for (int p = 0; p < rank_; ++p) {
            auto& ps = peers_[static_cast<std::size_t>(p)];
            ps.frames_sent += 1;
            ps.bytes_sent += kHeaderBytes;
        }
        for (int p = rank_ + 1; p < nranks_; ++p) {
            auto& ps = peers_[static_cast<std::size_t>(p)];
            ps.frames_received += 1;
            ps.bytes_received += kHeaderBytes;
        }
    }
    for (auto& c : conns_) {
        if (c->open.load()) {
            c->sock.set_nonblocking(true);
            c->sock.set_nodelay(true);
        }
    }
    mesh_started_ = true;
    reader_ = std::thread([this] { reader_loop(); });
    writer_ = std::thread([this] { writer_loop(); });
}

void Endpoint::send_eager(int dest, int tag, FrameBuf frame) {
    DFAMR_REQUIRE(frame->size() >= kHeaderBytes, "net: frame too small");
    FrameHeader h;
    h.kind = FrameKind::Eager;
    h.src = rank_;
    h.tag = tag;
    h.payload_bytes = frame->size() - kHeaderBytes;
    encode_header(h, frame->data());
    enqueue(dest, std::move(frame));
}

void Endpoint::send_rendezvous(int dest, int tag, FrameBuf frame, std::function<void()> on_sent) {
    DFAMR_REQUIRE(frame->size() >= kHeaderBytes, "net: frame too small");
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
        pending_rndz_[{dest, seq}] = QueuedWrite{dest, std::move(frame), std::move(on_sent)};
    }
    {
        std::lock_guard lk(counters_m_);
        ++counters_.rendezvous;
    }
    FrameBuf rts = header_only_frame(FrameKind::Rts, tag, seq, payload_bytes);
    enqueue(dest, std::move(rts));
}

NetCounters Endpoint::counters() const {
    std::lock_guard lk(counters_m_);
    return counters_;
}

std::vector<PeerStats> Endpoint::peer_counters() const {
    std::lock_guard lk(counters_m_);
    return peers_;
}

void Endpoint::enqueue(int dest, FrameBuf frame, std::function<void()> on_written) {
    {
        std::lock_guard lk(write_m_);
        write_q_.push_back(QueuedWrite{dest, std::move(frame), std::move(on_written)});
    }
    write_cv_.notify_one();
}

void Endpoint::drop_pending_for(int peer) {
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

void Endpoint::wake_reader() {
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

FrameBuf Endpoint::header_only_frame(FrameKind kind, int tag, std::uint32_t seq,
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

std::vector<Endpoint::QueuedWrite> Endpoint::pop_write_batch(
    std::unique_lock<lockdep::Mutex>& /*held write_m_*/) {
    std::vector<QueuedWrite> batch;
    batch.push_back(std::move(write_q_.front()));
    write_q_.pop_front();
    if (!coalesce_) return batch;
    const FrameHeader head = decode_header({batch.front().frame->data(), kHeaderBytes});
    if (head.kind != FrameKind::Eager) return batch;
    const int dest = batch.front().dest;
    std::size_t total = batch.front().frame->size() - kHeaderBytes;
    for (auto it = write_q_.begin();
         it != write_q_.end() && batch.size() < kMaxCoalesceMsgs && total < kMaxCoalesceBytes;) {
        if (it->dest != dest) {
            ++it;  // other destinations are independent streams; skip over
            continue;
        }
        const FrameHeader h = decode_header({it->frame->data(), kHeaderBytes});
        // Stop at the first non-Eager frame for this destination: pulling an
        // Eager forward past an Rts or Data would reorder it within its own
        // (source, tag) stream and break non-overtaking.
        if (h.kind != FrameKind::Eager) break;
        total += it->frame->size() - kHeaderBytes;
        batch.push_back(std::move(*it));
        it = write_q_.erase(it);
    }
    return batch;
}

bool Endpoint::write_coalesced(Connection& conn, const std::vector<QueuedWrite>& batch) {
    // Head buffer: Coalesced header followed by the sub-message table; the
    // sub-payloads stay in their original frames and go out via writev.
    const std::size_t count = batch.size();
    std::vector<std::byte> head(kHeaderBytes + count * kSubMsgEntryBytes);
    std::uint64_t payload_total = count * kSubMsgEntryBytes;
    std::vector<iovec> iov;
    iov.reserve(1 + 2 * count);
    iov.push_back(iovec{head.data(), head.size()});
    for (std::size_t i = 0; i < count; ++i) {
        const auto& frame = *batch[i].frame;
        const FrameHeader sub = decode_header({frame.data(), kHeaderBytes});
        SubMsgEntry e;
        e.tag = sub.tag;
        e.bytes = frame.size() - kHeaderBytes;
        encode_sub_entry(e, head.data() + kHeaderBytes + i * kSubMsgEntryBytes);
        const std::size_t padded = padded_sub_bytes(static_cast<std::size_t>(e.bytes));
        payload_total += padded;
        if (e.bytes > 0) {
            iov.push_back(iovec{const_cast<std::byte*>(frame.data()) + kHeaderBytes,
                                static_cast<std::size_t>(e.bytes)});
        }
        if (padded > e.bytes) {
            iov.push_back(
                iovec{const_cast<std::byte*>(kZeroPad.data()), padded - e.bytes});
        }
    }
    FrameHeader h;
    h.kind = FrameKind::Coalesced;
    h.src = rank_;
    h.aux = count;
    h.payload_bytes = payload_total;
    encode_header(h, head.data());
    // Observe BEFORE the bytes hit the socket (see writer_loop).
    if (observer_ != nullptr) observer_->on_frame_sent(conn.peer, h);
    if (!write_vectored(conn.sock, iov)) return false;
    {
        std::lock_guard lk(counters_m_);
        ++counters_.frames_sent;
        counters_.bytes_sent += kHeaderBytes + payload_total;
        ++counters_.coalesced_frames_sent;
        counters_.coalesced_messages += count;
        auto& ps = peers_[static_cast<std::size_t>(conn.peer)];
        ps.frames_sent += 1;
        ps.bytes_sent += kHeaderBytes + payload_total;
    }
    return true;
}

void Endpoint::writer_loop() {
    for (;;) {
        std::vector<QueuedWrite> batch;
        {
            std::unique_lock lk(write_m_);
            write_cv_.wait(lk, [&] { return !write_q_.empty() || writer_shutdown_; });
            if (write_q_.empty()) return;  // shutdown and drained
            batch = pop_write_batch(lk);
        }
        const int dest = batch.front().dest;
        auto& conn = *conns_[static_cast<std::size_t>(dest)];
        bool ok = false;
        if (conn.open.load(std::memory_order_acquire)) {
            if (batch.size() == 1) {
                const auto& w = batch.front();
                // Observe BEFORE the bytes hit the socket: once write_frame
                // returns, the peer may already have read the frame and
                // responded, and the reader thread could deliver that response
                // to the observer first — a post-write hook would then see
                // e.g. Cts arrive before its Rts was recorded as sent.
                if (observer_ != nullptr) {
                    observer_->on_frame_sent(
                        dest, decode_header({w.frame->data(), kHeaderBytes}));
                }
                ok = write_frame(conn.sock, *w.frame);
                if (ok) {
                    std::lock_guard lk(counters_m_);
                    ++counters_.frames_sent;
                    counters_.bytes_sent += w.frame->size();
                    auto& ps = peers_[static_cast<std::size_t>(dest)];
                    ps.frames_sent += 1;
                    ps.bytes_sent += w.frame->size();
                }
            } else {
                ok = write_coalesced(conn, batch);
            }
            if (!ok) {
                conn.open.store(false, std::memory_order_release);
                drop_pending_for(conn.peer);
            }
        }
        // Complete the sends even on failure: peer death aborts the world
        // through peer_gone, and a forever-pending request would hang it.
        for (auto& w : batch) {
            if (w.on_written) w.on_written();
        }
    }
}

void Endpoint::reader_loop() {
    std::vector<pollfd> pfds;
    std::vector<int> peers;  // peer rank per pollfd entry (-1 = wake pipe)
    while (!reader_stop_.load(std::memory_order_acquire)) {
        pfds.clear();
        peers.clear();
        pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
        peers.push_back(-1);
        for (auto& c : conns_) {
            if (c->open.load(std::memory_order_acquire) && c->sock.valid()) {
                pfds.push_back(pollfd{c->sock.fd(), POLLIN, 0});
                peers.push_back(c->peer);
            }
        }
        const int nready = ::poll(pfds.data(), pfds.size(), 200);
        if (nready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (nready == 0) continue;
        const std::int64_t t0 = trace_ ? now_ns() : 0;
        bool worked = false;
        for (std::size_t i = 0; i < pfds.size(); ++i) {
            if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            if (peers[i] < 0) {
                char sink[64];
                while (::read(wake_pipe_[0], sink, sizeof sink) > 0) {
                }
                continue;
            }
            worked = true;
            auto& conn = *conns_[static_cast<std::size_t>(peers[i])];
            if (!drain_connection(conn)) {
                const bool clean = conn.saw_bye;
                conn.open.store(false, std::memory_order_release);
                drop_pending_for(conn.peer);
                sink_->peer_gone(conn.peer, clean);
            }
        }
        if (worked && trace_) trace_(t0, now_ns());
    }
}

bool Endpoint::drain_connection(Connection& conn) {
    for (;;) {
        if (conn.saw_bye) return false;
        std::byte* dst = nullptr;
        std::size_t want = 0;
        if (!conn.have_header) {
            dst = conn.header_buf.data() + conn.header_got;
            want = kHeaderBytes - conn.header_got;
        } else {
            dst = conn.payload->data() + conn.payload_got;
            want = conn.payload->size() - conn.payload_got;
        }
        const ssize_t n = ::recv(conn.sock.fd(), dst, want, 0);
        if (n == 0) return false;  // EOF
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // drained
            return false;
        }
        {
            std::lock_guard lk(counters_m_);
            counters_.bytes_received += static_cast<std::uint64_t>(n);
            peers_[static_cast<std::size_t>(conn.peer)].bytes_received +=
                static_cast<std::uint64_t>(n);
        }
        if (!conn.have_header) {
            conn.header_got += static_cast<std::size_t>(n);
            if (conn.header_got < kHeaderBytes) continue;
            conn.header = decode_header(conn.header_buf);
            if (conn.header.magic != kWireMagic) return false;  // corrupt stream
            conn.have_header = true;
            conn.header_got = 0;
            if (conn.header.payload_bytes > 0) {
                conn.payload = std::make_shared<std::vector<std::byte>>(
                    static_cast<std::size_t>(conn.header.payload_bytes));
                conn.payload_got = 0;
                continue;
            }
            conn.payload = nullptr;
        } else {
            conn.payload_got += static_cast<std::size_t>(n);
            if (conn.payload_got < conn.payload->size()) continue;
        }
        // A full frame is assembled.
        {
            std::lock_guard lk(counters_m_);
            ++counters_.frames_received;
            peers_[static_cast<std::size_t>(conn.peer)].frames_received += 1;
        }
        FrameHeader h = conn.header;
        FrameBuf payload = std::move(conn.payload);
        conn.have_header = false;
        conn.payload = nullptr;
        conn.payload_got = 0;
        if (observer_ != nullptr) observer_->on_frame_received(conn.peer, h);
        handle_frame(conn, h, std::move(payload));
    }
}

void Endpoint::handle_frame(Connection& conn, FrameHeader h, FrameBuf payload) {
    switch (h.kind) {
        case FrameKind::Eager: {
            std::span<const std::byte> view =
                payload ? std::span<const std::byte>(*payload) : std::span<const std::byte>{};
            deliver_or_hold(conn, h.tag, std::move(payload), view);
            return;
        }
        case FrameKind::Coalesced: {
            // Unbatch: deliver each sub-message as its own eager message; all
            // views alias the one frame buffer (shared storage, no copies).
            const std::span<const std::byte> all =
                payload ? std::span<const std::byte>(*payload) : std::span<const std::byte>{};
            for_each_sub_message(all, h.aux, [&](int tag, std::span<const std::byte> sub) {
                deliver_or_hold(conn, tag, FrameBuf(payload), sub);
            });
            return;
        }
        case FrameKind::Rts: {
            // Reserve the message's slot in the stream now, grant the
            // transfer; the payload fills the slot when Data arrives.
            HeldFrame slot;
            slot.placeholder = true;
            slot.seq = h.seq;
            conn.held[h.tag].push_back(std::move(slot));
            enqueue(conn.peer, header_only_frame(FrameKind::Cts, h.tag, h.seq, 0));
            return;
        }
        case FrameKind::Cts: {
            QueuedWrite w;
            {
                std::lock_guard lk(rndz_m_);
                auto it = pending_rndz_.find({conn.peer, h.seq});
                DFAMR_REQUIRE(it != pending_rndz_.end(), "net: Cts for unknown rendezvous");
                w = std::move(it->second);
                pending_rndz_.erase(it);
            }
            rndz_cv_.notify_all();
            enqueue(w.dest, std::move(w.frame), std::move(w.on_written));
            return;
        }
        case FrameKind::Data: {
            auto it = conn.held.find(h.tag);
            DFAMR_REQUIRE(it != conn.held.end() && !it->second.empty(),
                          "net: Data with no pending rendezvous");
            // Cts grants leave in stream order, so Data frames of one stream
            // arrive in placeholder order; fill the matching slot.
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
            DFAMR_REQUIRE(filled, "net: Data seq matches no placeholder");
            // Release the in-order prefix that is now complete.
            auto& dq = it->second;
            while (!dq.empty() && !dq.front().placeholder) {
                HeldFrame f = std::move(dq.front());
                dq.pop_front();
                sink_->deliver(conn.peer, h.tag, std::move(f.storage), f.payload);
            }
            if (dq.empty()) conn.held.erase(it);
            return;
        }
        case FrameKind::Bye:
            conn.saw_bye = true;
            return;
        case FrameKind::Hello:
        default:
            DFAMR_REQUIRE(false, "net: unexpected frame kind");
    }
}

void Endpoint::deliver_or_hold(Connection& conn, int tag, FrameBuf storage,
                               std::span<const std::byte> payload) {
    auto it = conn.held.find(tag);
    if (it != conn.held.end() && !it->second.empty()) {
        HeldFrame f;
        f.storage = std::move(storage);
        f.payload = payload;
        it->second.push_back(std::move(f));
        return;
    }
    sink_->deliver(conn.peer, tag, std::move(storage), payload);
}

}  // namespace dfamr::net
