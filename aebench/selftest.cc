// Checks of the benchmark's own arithmetic: the percentile rule, failure and
// SLO accounting, self-time subtraction and client/server span matching.
// Exits non-zero on the first failed check; run.py runs it before every run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace aebench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(Near(Percentile(v, 50), 50));
  CHECK(Near(Percentile(v, 99), 99));
  CHECK(Near(Percentile(v, 100), 100));
  CHECK(Near(Percentile(v, 0.5), 1));
  CHECK(Near(Percentile({7.0}, 99), 7));
  CHECK(Near(Percentile({}, 50), 0));
  CHECK(Near(Percentile({1, 2, 3, 4}, 50), 2));  // nearest rank, no interpolation
}

void TestTailRule() {
  CHECK(SamplesBeyond(1000, 99) == 10);
  CHECK(SamplesBeyond(999, 99) == 9);  // rank ceil(989.01) = 990
  CHECK(SamplesBeyond(10, 100) == 0);
  // At least ten samples beyond the reported percentile.
  CHECK(Near(TailPercentile(10000), 99.9));
  CHECK(Near(TailPercentile(9999), 99));
  CHECK(Near(TailPercentile(1000), 99));
  CHECK(Near(TailPercentile(999), 90));
  CHECK(Near(TailPercentile(100), 90));
  CHECK(Near(TailPercentile(99), 50));
  CHECK(Near(TailPercentile(20), 50));
  CHECK(Near(TailPercentile(19), 0));
  for (size_t n : {20, 57, 100, 999, 1000, 4321, 10000, 123456}) {
    CHECK(SamplesBeyond(n, TailPercentile(n)) >= 10);
  }
}

void TestMedianSliceMean() {
  // Slice 0: 1,1,0 (2/3); slice 1: 1 (1); slice 2: none; slice 3: 0,0 (0).
  std::vector<Sample> v = {{0.1, 1}, {0.2, 1}, {0.3, 0}, {1.5, 1},
                           {3.1, 0}, {3.9, 0}, {-1, 1}};
  CHECK(Near(MedianSliceMean(v, 4.0), 2.0 / 3.0));
  // Samples past the last whole slice fold into it.
  CHECK(Near(MedianSliceMean({{0.5, 4}, {1.2, 8}}, 1.0), 6));
  CHECK(Near(MedianSliceMean({}, 3.0), 0));
}

void TestTxnAccount() {
  TxnAccount a;
  CHECK(Near(a.abort_share(), 0));  // nothing attempted: no division by zero
  a.committed = 90;
  a.aborted = 8;
  a.hard_errors = 2;
  a.wrong_results = 1;
  CHECK(a.attempted() == 100);
  CHECK(a.failed() == 3);
  CHECK(Near(TxnAccount::Share(a.failed(), a.attempted()), 0.03));
  CHECK(Near(a.abort_share(), 0.08));
}

void TestSloAccount() {
  SloAccount s;
  s.within_limit = 950;
  s.over_limit = 20;
  s.wrong = 5;
  s.shed = 10;
  s.errors = 5;
  s.unsent = 10;
  CHECK(s.scheduled() == 1000);
  // Every failure, shed or late answer misses the SLO.
  CHECK(s.misses() == 50);
  CHECK(Near(s.miss_share(), 0.05));
  CHECK(s.failed() == 30);
}

void TestSelfTime() {
  Interval op{0, 100};
  CHECK(SelfTime(op, {}) == 100);
  CHECK(SelfTime(op, {{10, 20}, {30, 50}}) == 70);
  CHECK(SelfTime(op, {{10, 40}, {30, 50}}) == 60);     // overlap counts once
  CHECK(SelfTime(op, {{30, 50}, {10, 40}}) == 60);     // order-independent
  CHECK(SelfTime(op, {{-10, 20}, {90, 130}}) == 70);   // clipped to parent
  CHECK(SelfTime(op, {{20, 30}, {22, 25}}) == 90);     // nested child
  CHECK(SelfTime(op, {{0, 100}}) == 0);
}

Span MakeSpan(uint64_t id, uint64_t parent, SpanKind kind, uint64_t txn,
              int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.kind = kind;
  s.txn = txn;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestAnalyze() {
  // Two concurrent ops. Op 1: an execute in txn 7 whose server span sits
  // inside it, and a commit. Op 2 (overlapping in time): an execute in txn 8
  // and a describe that never reached a server span.
  std::vector<Span> spans = {
      MakeSpan(1, 0, SpanKind::kOp, 0, 0, 100'000),
      MakeSpan(2, 1, SpanKind::kClientExecute, 7, 10'000, 50'000),
      MakeSpan(3, 1, SpanKind::kClientCommit, 7, 60'000, 90'000),
      MakeSpan(4, 0, SpanKind::kServerExecute, 7, 20'000, 40'000),
      MakeSpan(5, 0, SpanKind::kServerCommit, 7, 65'000, 85'000),
      MakeSpan(10, 0, SpanKind::kOp, 0, 5'000, 55'000),
      MakeSpan(11, 10, SpanKind::kClientExecute, 8, 10'000, 40'000),
      MakeSpan(12, 10, SpanKind::kClientDescribe, 0, 42'000, 50'000),
      MakeSpan(13, 0, SpanKind::kServerExecute, 8, 12'000, 38'000),
  };
  TraceSummary s = Analyze(spans);
  CHECK(s.ops == 2);
  CHECK(s.client_calls == 4);
  CHECK(s.client_executes == 2);
  CHECK(s.matched_calls == 3);
  CHECK(s.op_ns == 150'000);
  // Op 1: 100us - 40us - 30us; op 2: 50us - 30us - 8us.
  CHECK(s.client_self_ns == 30'000 + 12'000);
  CHECK(s.matched_call_ns == 40'000 + 30'000 + 30'000);
  CHECK(s.net_overhead_us.size() == 3);
  // The txn id keeps op 1's execute from taking op 2's server span, which
  // starts earlier but belongs to txn 8.
  std::vector<double> overhead = s.net_overhead_us;
  std::sort(overhead.begin(), overhead.end());
  CHECK(Near(overhead[0], 4) && Near(overhead[1], 10) && Near(overhead[2], 20));
  CHECK(s.execute_us.size() == 2 && s.commit_us.size() == 1);
  // Unmatched describe time (8us) is the only part not accounted for.
  CHECK(Near(s.coverage(), (150.0 - 8.0) / 150.0));
}

}  // namespace
}  // namespace aebench

int main() {
  aebench::TestPercentile();
  aebench::TestTailRule();
  aebench::TestMedianSliceMean();
  aebench::TestTxnAccount();
  aebench::TestSloAccount();
  aebench::TestSelfTime();
  aebench::TestAnalyze();
  if (aebench::failures != 0) return 1;
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
