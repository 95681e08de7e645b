#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace aebench {

namespace {

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;
thread_local bool t_tracing = false;

constexpr int kIdShift = 40;  // per-thread id spaces: 2^40 ids each

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kClientExecute: return "client.execute";
    case SpanKind::kClientDescribe: return "client.describe";
    case SpanKind::kClientBegin: return "client.begin";
    case SpanKind::kClientCommit: return "client.commit";
    case SpanKind::kClientRollback: return "client.rollback";
    case SpanKind::kClientOther: return "client.other";
    case SpanKind::kServerExecute: return "server.execute";
    case SpanKind::kServerDescribe: return "server.describe";
    case SpanKind::kServerBegin: return "server.begin";
    case SpanKind::kServerCommit: return "server.commit";
    case SpanKind::kServerRollback: return "server.rollback";
    case SpanKind::kServerOther: return "server.other";
  }
  return "?";
}

bool IsClientCall(SpanKind kind) {
  return kind >= SpanKind::kClientExecute && kind <= SpanKind::kClientOther;
}

/// The kServer* kind a kClient* call turns into on the server.
SpanKind ServerKindOf(SpanKind client_kind) {
  int offset = static_cast<int>(client_kind) -
               static_cast<int>(SpanKind::kClientExecute);
  return static_cast<SpanKind>(static_cast<int>(SpanKind::kServerExecute) +
                               offset);
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
  return *tracer;                        // record until process exit
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(buffers_mu_);
    owned->thread_index = buffers_.size() + 1;
    owned->next_id = 1;
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

uint64_t Tracer::NextId() {
  Buffer* b = ThreadBuffer();
  return (b->thread_index << kIdShift) | b->next_id++;
}

void Tracer::Record(const Span& span) {
  Buffer* b = ThreadBuffer();
  std::lock_guard<std::mutex> lock(b->mu);
  b->spans.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool Tracer::WriteCsv(const std::string& path,
                      const std::vector<Span>& spans) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,txn,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%llu,%s,%lld,%lld\n",
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 (unsigned long long)s.request, (unsigned long long)s.txn,
                 SpanName(s.kind), (long long)s.start_ns, (long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t txn, bool on) : on_(on) {
  if (!on_) return;
  Tracer& tracer = Tracer::Get();
  span_.id = tracer.NextId();
  span_.kind = kind;
  span_.txn = txn;
  span_.parent = t_current_span;
  span_.request = t_current_request != 0 ? t_current_request : span_.id;
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = span_.id;
  t_current_request = span_.request;
  span_.start_ns = Tracer::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = Tracer::NowNs();
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  Tracer::Get().Record(span_);
}

void SetThreadTracing(bool on) { t_tracing = on; }
bool ThreadTracing() { return t_tracing; }

TraceSummary Analyze(const std::vector<Span>& spans) {
  TraceSummary out;

  // Server spans by kind, sorted by start, for containment matching.
  std::unordered_map<int, std::vector<const Span*>> server_by_kind;
  std::unordered_map<uint64_t, std::vector<const Span*>> children_of_op;
  std::vector<const Span*> ops;
  for (const Span& s : spans) {
    double us = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    switch (s.kind) {
      case SpanKind::kOp:
        ops.push_back(&s);
        break;
      case SpanKind::kServerExecute:
        out.execute_us.push_back(us);
        break;
      case SpanKind::kServerCommit:
        out.commit_us.push_back(us);
        break;
      case SpanKind::kServerDescribe:
        out.describe_us.push_back(us);
        break;
      default:
        break;
    }
    if (s.kind >= SpanKind::kServerExecute) {
      server_by_kind[static_cast<int>(s.kind)].push_back(&s);
    }
  }
  for (const Span& s : spans) {
    if (IsClientCall(s.kind) && s.parent != 0) {
      children_of_op[s.parent].push_back(&s);
    }
  }
  for (auto& [kind, list] : server_by_kind) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
  }

  std::unordered_map<const Span*, bool> taken;
  // Finds the first unmatched server span of the right kind and txn that
  // lies inside `call`.
  auto match = [&](const Span& call) -> const Span* {
    auto it = server_by_kind.find(static_cast<int>(ServerKindOf(call.kind)));
    if (it == server_by_kind.end()) return nullptr;
    const auto& list = it->second;
    auto first = std::lower_bound(
        list.begin(), list.end(), call.start_ns,
        [](const Span* s, int64_t t) { return s->start_ns < t; });
    for (auto p = first; p != list.end() && (*p)->start_ns <= call.end_ns;
         ++p) {
      const Span* cand = *p;
      if (cand->end_ns <= call.end_ns && cand->txn == call.txn &&
          !taken[cand]) {
        taken[cand] = true;
        return cand;
      }
    }
    return nullptr;
  };

  for (const Span* op : ops) {
    ++out.ops;
    out.op_ns += op->end_ns - op->start_ns;
    std::vector<Interval> child_intervals;
    auto it = children_of_op.find(op->id);
    if (it != children_of_op.end()) {
      for (const Span* call : it->second) {
        child_intervals.push_back(call->interval());
        ++out.client_calls;
        if (call->kind == SpanKind::kClientExecute) ++out.client_executes;
        if (const Span* server = match(*call)) {
          ++out.matched_calls;
          int64_t call_ns = call->end_ns - call->start_ns;
          out.matched_call_ns += call_ns;
          out.net_overhead_us.push_back(
              static_cast<double>(call_ns -
                                  (server->end_ns - server->start_ns)) /
              1000.0);
        }
      }
    }
    out.client_self_ns += SelfTime(op->interval(), child_intervals);
  }
  return out;
}

}  // namespace aebench
