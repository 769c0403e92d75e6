#include "verify/history_checker.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

namespace sbq::histcheck {

namespace {

constexpr TimeT kNever = std::numeric_limits<TimeT>::max();

std::string str(std::uint64_t x) { return std::to_string(x); }

std::string describe(const Op& op) {
  const std::string span = "[" + str(op.invoked) + "," + str(op.responded);
  return op.kind == Op::kEnq
             ? "enqueue " + span + ") of " + str(op.value)
             : "dequeue " + span + ") returned " +
                   (op.value == 0 ? "NULL" : str(op.value));
}

bool malformed(const Op& op) { return op.responded < op.invoked; }

}  // namespace

std::vector<Violation> History::check() const {
  // Per value: its enqueue, its dequeue count and the earliest invocation
  // among its dequeues (kNever if it was never dequeued).
  struct Value {
    const Op* enq = nullptr;
    std::size_t deqs = 0;
    TimeT first_deq = kNever;
  };
  std::unordered_map<ValueT, Value> values;
  values.reserve(ops_.size());
  for (const Op& op : ops_) {
    if (malformed(op)) continue;
    Value& val = values[op.value];
    if (op.kind == Op::kEnq) {
      val.enq = &op;
    } else if (op.value != 0) {
      ++val.deqs;
      val.first_deq = std::min(val.first_deq, op.invoked);
    }
  }

  // VMalformed, VFresh and VRepeat, in record order. Every other dequeue
  // becomes a query keyed by an invocation: a NULL dequeue's own (VWit), or
  // that of the enqueue of the value it returned (VOrd).
  std::vector<Violation> out;
  std::vector<const Op*> enqs;
  std::vector<std::pair<TimeT, const Op*>> queries;
  for (const Op& op : ops_) {
    if (malformed(op)) {
      out.push_back({"VMalformed", describe(op) + ": responds before invoked"});
      continue;
    }
    Value& val = values[op.value];
    if (op.kind == Op::kEnq) {
      enqs.push_back(&op);
    } else if (op.value == 0) {
      queries.emplace_back(op.invoked, &op);
    } else if (val.enq == nullptr || op.responded < val.enq->invoked) {
      out.push_back({"VFresh", describe(op) + (val.enq == nullptr
                                                   ? ", never enqueued"
                                                   : ", not yet enqueued")});
    } else {
      queries.emplace_back(val.enq->invoked, &op);
    }
    if (op.kind == Op::kDeq && val.deqs > 1) {
      out.push_back({"VRepeat", "value " + str(op.value) + " dequeued " +
                                    str(val.deqs) + " times"});
      val.deqs = 1;  // one report per value
    }
  }

  // Sweep the queries by key over the enqueues by response, keeping the
  // latest first-dequeue invocation among the enqueues that precede the key.
  // If that value was still in the queue when the query's dequeue responded,
  // the dequeue is a VOrd (FIFO inverted, or the earlier value never left)
  // or, if it returned NULL, a VWit.
  std::sort(enqs.begin(), enqs.end(), [](const Op* a, const Op* b) {
    return a->responded < b->responded;
  });
  std::sort(queries.begin(), queries.end());
  TimeT latest = 0;
  ValueT witness = 0;  // the value whose first dequeue is `latest`
  std::size_t next = 0;
  for (const auto& [key, d] : queries) {
    for (; next < enqs.size() && enqs[next]->responded < key; ++next) {
      const TimeT first = values[enqs[next]->value].first_deq;
      if (first > latest) {
        latest = first;
        witness = enqs[next]->value;
      }
    }
    if (latest <= d->responded) continue;
    const std::string why = " although " + str(witness) + ", enqueued before";
    out.push_back(d->value == 0
                      ? Violation{"VWit", describe(*d) + why +
                                               ", stayed queued throughout"}
                      : Violation{"VOrd", describe(*d) + why + ", was " +
                                               (latest == kNever
                                                    ? "never dequeued"
                                                    : "dequeued only after")});
  }
  return out;
}

}  // namespace sbq::histcheck
