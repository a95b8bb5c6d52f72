// Hardened point-to-point communication: bounded exponential-backoff retry
// for transient delivery failures and deadlines on receive completion, so a
// faulty interconnect surfaces as a typed CommTimeout error instead of a
// hang. Wraps an mpi::Communicator; with fault injection off the wrappers
// add one status check per operation and nothing else.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "amr/trace.hpp"
#include "common/error.hpp"
#include "mpisim/mpi.hpp"

namespace dfamr::resilience {

/// Retry/timeout budget exhausted for a point-to-point operation. The
/// message names the local rank, the peer and the tag so a chaos failure is
/// attributable from the log alone.
class CommTimeout : public Error {
public:
    CommTimeout(const std::string& op, int rank, int peer, int tag)
        : Error("CommTimeout: " + op + " exhausted its retry/timeout budget on rank " +
                std::to_string(rank) + " (peer " + std::to_string(peer) + ", tag " +
                std::to_string(tag) + ")"),
          rank_(rank),
          peer_(peer),
          tag_(tag) {}

    int rank() const { return rank_; }
    int peer() const { return peer_; }
    int tag() const { return tag_; }

private:
    int rank_;
    int peer_;
    int tag_;
};

/// Retry and deadline budget for hardened operations.
struct RetryPolicy {
    int max_attempts = 5;                      // send attempts before CommTimeout
    std::int64_t backoff_ns = 50'000;          // backoff before the first retry
    double backoff_factor = 2.0;               // exponential growth per retry
    std::int64_t max_backoff_ns = 5'000'000;   // backoff ceiling
    std::int64_t timeout_ns = 10'000'000'000;  // receive/wait completion deadline
};

/// Sends with bounded exponential-backoff retry on transient (dropped)
/// delivery. Retries are traced as PhaseKind::Retry intervals when `tracer`
/// is set. Throws CommTimeout after policy.max_attempts dropped attempts.
/// Shared by HardenedComm and the TAMPI integration.
mpi::Request isend_with_retry(mpi::Communicator& comm, const void* buf, std::size_t bytes,
                              int dest, int tag, const RetryPolicy& policy,
                              amr::Tracer* tracer = nullptr, int worker = 0);

class HardenedComm {
public:
    HardenedComm(mpi::Communicator& comm, const RetryPolicy& policy,
                 amr::Tracer* tracer = nullptr)
        : comm_(comm), policy_(policy), tracer_(tracer) {}

    mpi::Communicator& raw() { return comm_; }
    int rank() const { return comm_.rank(); }
    const RetryPolicy& policy() const { return policy_; }

    /// isend with retry on transient failure (completes before returning on
    /// the eager transport, so the retry loop is synchronous).
    mpi::Request isend(const void* buf, std::size_t bytes, int dest, int tag);
    /// Plain irecv: the deadline applies at the wait, not at the post.
    mpi::Request irecv(void* buf, std::size_t bytes, int source, int tag);

    void send(const void* buf, std::size_t bytes, int dest, int tag);
    /// Blocking receive with deadline; a timed-out receive is canceled (its
    /// buffer released from the mailbox) before CommTimeout is thrown.
    void recv(void* buf, std::size_t bytes, int source, int tag, mpi::Status* status = nullptr);

    /// wait_all with deadline: cancels unfinished receives before throwing
    /// CommTimeout. `peer`/`tag` only annotate the error message.
    void wait_all(std::span<mpi::Request> reqs, int peer = mpi::kAnySource,
                  int tag = mpi::kAnyTag);
    /// wait_any with deadline; same contract as mpi::wait_any otherwise.
    int wait_any(std::span<mpi::Request> reqs, mpi::Status* status = nullptr,
                 int peer = mpi::kAnySource, int tag = mpi::kAnyTag);

private:
    mpi::Communicator& comm_;
    RetryPolicy policy_;
    amr::Tracer* tracer_ = nullptr;
};

}  // namespace dfamr::resilience
