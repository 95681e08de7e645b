#ifndef AEDB_COMMON_QUERY_CONTEXT_H_
#define AEDB_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace aedb {

/// \brief Per-query execution context: absolute deadline + cancellation flag.
///
/// A QueryContext is stamped by server::Database at admission time and made
/// visible to the whole request path (executor morsel boundaries, lock-manager
/// waits, enclave calls) through a thread-local pointer — see
/// ScopedQueryContext. The thread-local indirection means deep layers
/// (e.g. the EnclaveInvoker implementations, btree comparators) observe the
/// deadline without every interface growing a context parameter.
///
/// Deadlines are absolute `steady_clock` points so the remaining budget
/// shrinks monotonically no matter how many layers re-derive it. A
/// default-constructed context has no deadline (`time_point::max()`).
///
/// Checking is cooperative and cheap: `Check()` is one clock read plus one
/// relaxed atomic load. Layers that sleep (lock waits, pool queues) must
/// instead bound their waits by `deadline()` so an expired query never
/// sleeps out a longer layer-local timeout.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;

  /// Context whose deadline is `budget` from now. budget <= 0 means already
  /// expired (deadline = now), NOT "no deadline".
  static QueryContext WithDeadlineAfter(std::chrono::milliseconds budget) {
    QueryContext ctx;
    ctx.deadline_ = Clock::now() + budget;
    return ctx;
  }

  QueryContext(QueryContext&& other) noexcept
      : deadline_(other.deadline_),
        cancelled_(other.cancelled_.load(std::memory_order_relaxed)) {}
  QueryContext& operator=(QueryContext&& other) noexcept {
    deadline_ = other.deadline_;
    cancelled_.store(other.cancelled_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }

  bool has_deadline() const { return deadline_ != Clock::time_point::max(); }
  Clock::time_point deadline() const { return deadline_; }

  bool expired() const { return has_deadline() && Clock::now() >= deadline_; }

  /// Remaining budget, clamped to >= 0. milliseconds::max() when no deadline.
  std::chrono::milliseconds remaining() const {
    if (!has_deadline()) return std::chrono::milliseconds::max();
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline_ - Clock::now());
    return left.count() < 0 ? std::chrono::milliseconds(0) : left;
  }

  /// Cooperative cancellation. A cancelled query surfaces kDeadlineExceeded
  /// (same taxonomy slot: the client has given up; the result must not be
  /// replayed) at its next cooperative check.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// OK while the query may keep running; kDeadlineExceeded once the deadline
  /// passed or the query was cancelled.
  Status Check() const {
    if (cancelled()) return Status::DeadlineExceeded("query cancelled");
    if (expired()) return Status::DeadlineExceeded("query deadline exceeded");
    return Status::OK();
  }

  /// The context installed on this thread by ScopedQueryContext, or nullptr.
  static const QueryContext* Current();

 private:
  friend class ScopedQueryContext;

  Clock::time_point deadline_ = Clock::time_point::max();
  std::atomic<bool> cancelled_{false};
};

/// RAII installer for the thread-local current query context. Nests: the
/// previous context is restored on destruction.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const QueryContext* ctx);
  ~ScopedQueryContext();

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  const QueryContext* prev_;
};

/// Appends the machine-readable retry-after hint used by overload rejections
/// ("...; retry-after-ms=N"). The driver parses it back out to pace retries.
std::string AppendRetryAfterHint(std::string msg, uint32_t retry_after_ms);

/// Extracts the retry-after hint from a status message; 0 if absent/garbled.
uint32_t RetryAfterMsFromMessage(std::string_view msg);

}  // namespace aedb

#endif  // AEDB_COMMON_QUERY_CONTEXT_H_
