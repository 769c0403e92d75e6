// SBQ on the coherence simulator (Algorithms 2–9 of the paper).
//
// Node layout (word addresses; each word its own simulated cache line):
//   [0 .. B-1]  basket cells (INSERT=0 / EMPTY=1 / element), one per
//               inserter, padded to a line each — as in Algorithm 8.
//   [B .. B+S-1] basket extraction counters, one per stripe (their own
//               lines: the counters are the dequeue-side FAA hot spots and
//               must not share a line with read-mostly fields, or every
//               emptiness check would join the FAA hand-off chain). S = 1
//               is the paper's basket; S > 1 is the striped scalable-
//               dequeue extension (our take on the paper's §8 future work).
//   [B+S]       drained-stripe counter (S > 1 only).
//   [B+S+1]     basket empty flag (read-mostly; written once per basket).
//   [B+S+2]     link word: (node index << kIndexShift) | next pointer.
//               node_t's next and index are adjacent header fields sharing
//               a line; the index is fixed before the node is published, so
//               packing them is exact. try_append's CAS/TxCAS targets this
//               word (expected: index bits with next == NULL).
// Queue layout:
//   [0] head  [1] tail  [2 .. 2+P-1] protector slots (enqueuers, dequeuers)
//
// try_append uses either TxCAS (SBQ-HTM) or a delayed plain CAS (SBQ-CAS),
// selected by Variant — mirroring §6.1's SBQ-HTM vs SBQ-CAS comparison.
//
// Fresh-node basket initialization is modeled as local think time
// (kInitCyclesPerCell per cell): initializing B private, freshly allocated
// lines is store-buffered work with no coherence contention. Node reuse
// after a FAILURE (§5.2.2) keeps this amortized at O(B/T) fresh
// initializations per append, exactly as the paper argues.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "sim/flat_map.hpp"
#include "simqueue/sim_queue_base.hpp"

namespace sbq::simq {

enum class SbqVariant { kHtm, kCas };

class SimSbq {
 public:
  struct Config {
    int enqueuers = 1;
    int dequeuers = 1;
    int basket_capacity = 0;  // 0 => enqueuers (the paper fixes B=44)
    SbqVariant variant = SbqVariant::kHtm;
    sim::TxCasConfig txcas{};  // also supplies the SBQ-CAS delay
    // Extraction stripes (1 = the paper's single-counter basket; more
    // stripes shard the dequeue FAA — the scalable-dequeue extension).
    int extraction_stripes = 1;
  };

  SimSbq(Machine& m, Config cfg)
      : machine_(&m), cfg_(cfg),
        basket_cap_(cfg.basket_capacity == 0 ? cfg.enqueuers
                                             : cfg.basket_capacity),
        stripes_(cfg.extraction_stripes < 1 ? 1
                 : cfg.extraction_stripes > cfg.enqueuers
                     ? cfg.enqueuers
                     : cfg.extraction_stripes),
        reusable_(static_cast<std::size_t>(cfg.enqueuers), 0) {
    assert(cfg_.enqueuers <= basket_cap_);
    queue_ = m.alloc(2 + static_cast<Addr>(cfg.enqueuers + cfg.dequeuers));
    const Addr sentinel = alloc_node_raw();
    // Initial state set directly in the LLC: the queue is constructed
    // before the simulation starts.
    // Sentinel has index 0 and next NULL.
    m.poke(head_addr(), sentinel);
    m.poke(tail_addr(), sentinel);
    m.poke(node_link(sentinel), pack_link(0, 0));
  }

  void save_host_state(std::vector<std::uint64_t>& out) const {
    out.push_back(queue_);
    out.push_back(reusable_.size());
    out.insert(out.end(), reusable_.begin(), reusable_.end());
    // The occupancy map is unordered; emit entries sorted by node address
    // so the blob is deterministic.
    std::vector<std::pair<Addr, std::uint64_t>> entries;
    for (const auto& entry : open_) entries.push_back(entry);
    std::sort(entries.begin(), entries.end());
    out.push_back(entries.size());
    for (const auto& [node, count] : entries) {
      out.push_back(node);
      out.push_back(count);
    }
  }

  // Re-point the queue at a forked machine (Machine::fork). The queue's
  // own state is host-side values plus simulated addresses, which are
  // machine-independent; sweep cells copy the warmed prototype queue and
  // rebind the copy to their fork.
  void rebind(Machine& m) { machine_ = &m; }

  // Pre-size the open-basket counts for `n` baskets, as
  // Machine::reserve_lines does the line table (sim_microbench).
  void reserve_baskets(std::size_t n) { open_.reserve(n); }

  static constexpr int kInitCyclesPerCell = 2;

  // ---- packed-word helpers ----
  static constexpr int kIndexShift = 40;  // next pointers are < 2^40 words
  static constexpr Value kNextMask = (Value{1} << kIndexShift) - 1;

  static constexpr Value pack_link(Value index, Addr next) {
    return (index << kIndexShift) | next;
  }
  static constexpr Addr link_next(Value link) { return link & kNextMask; }
  static constexpr Value link_index(Value link) { return link >> kIndexShift; }

  // ---- address helpers ----
  Addr head_addr() const { return queue_; }
  Addr tail_addr() const { return queue_ + 1; }
  Addr enq_protector(int id) const { return queue_ + 2 + static_cast<Addr>(id); }
  Addr deq_protector(int id) const {
    return queue_ + 2 + static_cast<Addr>(cfg_.enqueuers + id);
  }
  Addr node_cell(Addr node, Value i) const { return node + i; }
  Addr node_counter(Addr node, int stripe = 0) const {
    return node + static_cast<Addr>(basket_cap_) + static_cast<Addr>(stripe);
  }
  Addr node_drained(Addr node) const {
    return node + static_cast<Addr>(basket_cap_) + static_cast<Addr>(stripes_);
  }
  Addr node_empty(Addr node) const {
    return node + static_cast<Addr>(basket_cap_) + static_cast<Addr>(stripes_) + 1;
  }
  Addr node_link(Addr node) const {
    return node + static_cast<Addr>(basket_cap_) + static_cast<Addr>(stripes_) + 2;
  }

  // Convenience for tests: follow a node's next pointer.
  Task<Addr> load_next(Core& c, Addr node) {
    co_return link_next(co_await c.load(node_link(node)));
  }

  // ---- operations (Algorithms 3 and 5) ----

  Task<void> enqueue(Core& c, Value element, int id) {
    assert(element >= kFirstElement);
    Addr t = co_await protect(c, tail_addr(), enq_protector(id));
    Addr new_node = co_await take_or_allocate(c, id);
    co_await c.store(node_cell(new_node, static_cast<Value>(id)), element);
    for (;;) {
      const Value t_link = co_await c.load(node_link(t));
      const Value my_index = link_index(t_link) + 1;
      co_await c.store(node_link(new_node), pack_link(my_index, 0));
      const int status = co_await try_append(c, t, t_link, new_node, my_index);
      if (status == kSuccess) {
        c.metrics().on_basket_append(/*won=*/true);
        // The winner's own cell, stored above. Other cores see the link a
        // message delay after the winner's write, and the winner resumes
        // sooner, so the entry is made before any core looks for it.
        open_[new_node] = 1;
        co_await c.cas(tail_addr(), t, new_node);
        break;
      }
      if (status == kFailure) {
        c.metrics().on_basket_append(/*won=*/false);
        // Another node was appended; join the winner's basket.
        t = link_next(co_await c.load(node_link(t)));
        if (co_await c.cas(node_cell(t, static_cast<Value>(id)), kInsertMark,
                           element) != 0) {
          // Joined the basket. A join that lands after the basket's close
          // was counted (its CAS can precede the closer's SWAP) finds no
          // entry and is not counted.
          if (std::uint64_t* n = open_.find_ptr(t)) ++*n;
          // Keep our node for reuse; undo its single insertion (O(1)).
          co_await c.store(node_cell(new_node, static_cast<Value>(id)),
                           kInsertMark);
          for (int st = 0; st < stripes_; ++st) {
            co_await c.store(node_counter(new_node, st), 0);
          }
          if (stripes_ > 1) co_await c.store(node_drained(new_node), 0);
          co_await c.store(node_empty(new_node), 0);
          reusable_[static_cast<std::size_t>(id)] = new_node;
          break;
        }
      }
      // BAD_TAIL or basket insert failed: chase the real tail and retry.
      for (;;) {
        const Addr next = link_next(co_await c.load(node_link(t)));
        if (next == 0) break;
        t = next;
      }
      co_await advance(c, tail_addr(), t);
    }
    co_await unprotect(c, enq_protector(id));
  }

  Task<Value> dequeue(Core& c, int id) {
    Addr h = co_await protect(c, head_addr(), deq_protector(id));
    Value element = 0;
    for (;;) {
      // Find the first possibly-non-empty basket.
      for (;;) {
        if (co_await c.load(node_empty(h)) == 0) break;
        const Addr next = link_next(co_await c.load(node_link(h)));
        if (next == 0) break;
        h = next;
      }
      element = co_await basket_extract(c, h, id);
      if (element != 0) break;
      if (link_next(co_await c.load(node_link(h))) == 0) break;
    }
    co_await advance(c, head_addr(), h);
    co_await unprotect(c, deq_protector(id));
    co_return element;
  }

  // Queue must be quiescent; used by benches to pre-fill via core 0.
  Task<void> prefill(Core& c, Value first_element, Value count) {
    for (Value i = 0; i < count; ++i) {
      co_await enqueue(c, first_element + i, 0);
    }
  }

 private:
  static constexpr int kSuccess = 0;
  static constexpr int kFailure = 1;
  static constexpr int kBadTail = 2;

  Addr node_words() const {
    return static_cast<Addr>(basket_cap_) + static_cast<Addr>(stripes_) + 3;
  }

  Addr alloc_node_raw() { return machine_->alloc(node_words()); }

  Task<Addr> take_or_allocate(Core& c, int id) {
    Addr& slot = reusable_[static_cast<std::size_t>(id)];
    if (slot != 0) {
      c.metrics().on_basket_node(/*reused=*/true);
      const Addr node = slot;
      slot = 0;
      co_return node;
    }
    c.metrics().on_basket_node(/*reused=*/false);
    // Fresh allocation: model the basket initialization as local work.
    co_await c.think(static_cast<Time>(kInitCyclesPerCell * basket_cap_));
    co_return machine_->alloc(node_words());
  }

  // Algorithm 4 with the pluggable CAS (TxCAS or delayed plain CAS). The
  // CAS target is the tail's link word: expected = (tail index, NULL next).
  Task<int> try_append(Core& c, Addr tail, Value tail_link, Addr new_node,
                       Value my_index) {
    if (link_next(tail_link) != 0) {
      c.metrics().on_basket_stale_tail();
      co_return kBadTail;
    }
    const Value expected = pack_link(my_index - 1, 0);
    const Value desired = pack_link(my_index - 1, new_node);
    if (cfg_.variant == SbqVariant::kHtm) {
      const bool ok =
          co_await c.txcas(node_link(tail), expected, desired, cfg_.txcas);
      co_return ok ? kSuccess : kFailure;
    }
    // SBQ-CAS: the same delay placed before a plain CAS (§6.1).
    co_await c.think(cfg_.txcas.intra_txn_delay);
    const bool ok = co_await c.cas(node_link(tail), expected, desired) != 0;
    co_return ok ? kSuccess : kFailure;
  }

  // Algorithm 9: FAA-claimed extraction with the empty-bit short-circuit.
  // With stripes_ > 1 the counter is sharded per stripe (the §8 extension):
  // an extractor claims from its home stripe and falls over to the others;
  // whoever claims the last index of the last live stripe sets the empty
  // bit (tracked by the drained counter).
  Task<Value> basket_extract(Core& c, Addr node, int id) {
    if (co_await c.load(node_empty(node)) != 0) co_return 0;
    const Value live = static_cast<Value>(cfg_.enqueuers);
    if (stripes_ == 1) {
      for (;;) {
        const Value index = co_await c.faa(node_counter(node), 1);
        if (index >= live) co_return 0;
        if (index == live - 1) {
          count_close(c, node);
          co_await c.store(node_empty(node), 1);
        }
        const Value v = co_await c.swap(node_cell(node, index), kEmptyMark);
        c.metrics().on_basket_extract(v != kInsertMark);
        if (v != kInsertMark) co_return v;
      }
    }
    const int n = stripes_;
    const int start = id % n;
    for (int hop = 0; hop < n; ++hop) {
      const int st = (start + hop) % n;
      const Value size = stripe_size(st);
      const Value base = stripe_base(st);
      for (;;) {
        const Value index = co_await c.faa(node_counter(node, st), 1);
        if (index >= size) break;
        if (index == size - 1) {
          const Value drained = co_await c.faa(node_drained(node), 1);
          if (drained + 1 == static_cast<Value>(n)) {
            count_close(c, node);
            co_await c.store(node_empty(node), 1);
          }
        }
        const Value v =
            co_await c.swap(node_cell(node, base + index), kEmptyMark);
        c.metrics().on_basket_extract(v != kInsertMark);
        if (v != kInsertMark) co_return v;
      }
    }
    co_return 0;
  }

  // Count the basket's close with the elements that landed in it, and stop
  // tracking it. The sentinel was never appended, so it closes empty.
  void count_close(Core& c, Addr node) {
    const std::uint64_t* n = open_.find_ptr(node);
    c.metrics().on_basket_close(n == nullptr ? 0 : *n);
    open_.erase(node);
  }

  Value stripe_size(int s) const {
    const Value live = static_cast<Value>(cfg_.enqueuers);
    const Value n = static_cast<Value>(stripes_);
    return live / n + (static_cast<Value>(s) < live % n ? 1 : 0);
  }
  Value stripe_base(int s) const {
    const Value live = static_cast<Value>(cfg_.enqueuers);
    const Value n = static_cast<Value>(stripes_);
    const Value base = live / n;
    const Value rem = live % n;
    const Value sv = static_cast<Value>(s);
    return sv * base + (sv < rem ? sv : rem);
  }

  // Algorithm 6 over packed link words.
  Task<void> advance(Core& c, Addr ptr, Addr node) {
    const Value node_index = link_index(co_await c.load(node_link(node)));
    for (;;) {
      const Addr old_node = co_await c.load(ptr);
      if (old_node == node) co_return;
      const Value old_index = link_index(co_await c.load(node_link(old_node)));
      if (old_index >= node_index) co_return;
      if (co_await c.cas(ptr, old_node, node) != 0) co_return;
    }
  }

  Machine* machine_;
  Config cfg_;
  int basket_cap_;
  int stripes_;
  Addr queue_ = 0;
  std::vector<Addr> reusable_;  // host-side per-enqueuer node cache
  // Host-side occupancy bookkeeping for the metrics registry: the elements
  // that landed in each appended basket whose close is not yet counted.
  sim::FlatMap<std::uint64_t> open_;
};

}  // namespace sbq::simq
