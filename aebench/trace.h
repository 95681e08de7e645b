// Benchmark-side span recorder. Spans are taken around calls into the
// program's public interfaces (see decorators.h), kept in per-thread memory
// buffers, and written out once when the run ends. No program code records
// anything.
#ifndef AEBENCH_TRACE_H_
#define AEBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace aebench {

enum class SpanKind : uint8_t {
  kOp,  // one workload operation: a TPC-C RunOne or one lookup Query
  // client::Transport calls, made by the driver on the client thread.
  kClientExecute,
  kClientDescribe,
  kClientBegin,
  kClientCommit,
  kClientRollback,
  kClientOther,
  // server::SqlBackend calls, made by the net server's execution workers.
  kServerExecute,
  kServerDescribe,
  kServerBegin,
  kServerCommit,
  kServerRollback,
  kServerOther,
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root (server spans: no client parent)
  uint64_t request = 0;  // the enclosing op's id; client spans only
  uint64_t txn = 0;      // transaction id where the interface passes one
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kOp;

  Interval interval() const { return {start_ns, end_ns}; }
};

/// Process-wide span store. Recording is off until set_enabled(true).
class Tracer {
 public:
  static Tracer& Get();

  static int64_t NowNs();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void Record(const Span& span);
  /// A process-unique span id; allocation is per thread, uncontended.
  uint64_t NextId();
  /// Every span recorded so far, from every thread.
  std::vector<Span> Collect() const;
  /// Writes `spans` as CSV (id,parent,request,txn,name,start_ns,end_ns).
  bool WriteCsv(const std::string& path, const std::vector<Span>& spans) const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;  // guarded by mu
    uint64_t thread_index = 0;
    uint64_t next_id = 0;  // owning thread only
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by buffers_mu_
};

/// Records one span from construction to destruction when `on`. Client
/// spans nest: a span opened inside another on the same thread gets it as
/// parent and shares its request id; a root span starts a new request.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, uint64_t txn, bool on);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

/// Whether client-side spans record on this thread. A workload thread sets
/// it per operation, so an operation is traced whole or not at all.
void SetThreadTracing(bool on);
bool ThreadTracing();

/// What the spans of one run say about where statement time went.
struct TraceSummary {
  uint64_t ops = 0;
  int64_t op_ns = 0;           // total op duration
  int64_t client_self_ns = 0;  // ops minus their transport-call coverage
  int64_t matched_call_ns = 0; // op-child transport calls with a server span
  uint64_t client_calls = 0;   // op-child transport calls
  uint64_t client_executes = 0;  // of which Execute/ExecuteNamed
  uint64_t matched_calls = 0;
  std::vector<double> net_overhead_us;  // per matched call: client - server
  std::vector<double> execute_us;       // server Execute/ExecuteNamed
  std::vector<double> commit_us;        // server CommitTransaction
  std::vector<double> describe_us;      // server DescribeParameterEncryption

  /// Share of op time accounted for by client self time plus transport calls
  /// that were matched to a server span (server time + net overhead).
  double coverage() const {
    return op_ns == 0 ? 0.0
                      : static_cast<double>(client_self_ns + matched_call_ns) /
                            static_cast<double>(op_ns);
  }
};

/// Pairs every client transport call with the server call it caused (same
/// kind, same txn id, server interval inside the client interval) and
/// computes self times and per-layer latencies.
TraceSummary Analyze(const std::vector<Span>& spans);

}  // namespace aebench

#endif  // AEBENCH_TRACE_H_
