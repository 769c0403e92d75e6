// Index-based epoch reclamation (Algorithm 7 of the paper, adapted from
// Yang & Mellor-Crummey's wait-free queue).
//
// The queue is a singly linked list whose nodes carry monotonically
// increasing indices. A node is *retired* once the queue head has advanced
// past it. `retired` points at the retired prefix; `protectors[i]` is where
// thread i announces the earliest node it may still touch. free_nodes()
// frees the retired prefix up to min(protected indices), in mutual
// exclusion obtained by SWAPping `retired` with null.
//
// A pass reads every protector slot, so free_nodes() amortizes it the way
// Michael's hazard pointers do: it returns at once until the head is at
// least max_threads nodes past the retired prefix, one node per slot.
//
// "Free" means handing the node to `Deleter`, which may delete it or recycle
// it (sbq::Queue returns nodes to per-enqueuer pools).
//
// Node requirements: `Node* next` and `std::uint64_t index` members (or an
// atomic index: a protector slot may briefly hold a node that was reclaimed
// before its announcement was validated, and min_protected_index still reads
// that node's index; see sbq::Queue::Node).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/cacheline.hpp"
#include "common/padded.hpp"

namespace sbq {

template <typename Node, typename Deleter>
class RetiredList {
 public:
  // `sentinel` is the queue's initial node (retired starts there, as head
  // does). `max_threads` sizes the protectors array.
  RetiredList(Node* sentinel, std::size_t max_threads, Deleter deleter = {})
      : max_threads_(max_threads),
        protectors_(std::make_unique<Padded<std::atomic<Node*>>[]>(max_threads)),
        retired_(sentinel),
        retired_index_(static_cast<std::uint64_t>(sentinel->index)),
        deleter_(deleter) {
    for (std::size_t i = 0; i < max_threads_; ++i) {
      protectors_[i].value.store(nullptr, std::memory_order_relaxed);
    }
  }

  RetiredList(const RetiredList&) = delete;
  RetiredList& operator=(const RetiredList&) = delete;

  ~RetiredList() {
    // At destruction no thread is active; the retired prefix up to (and
    // including) whatever the caller still owns must be freed by the owner.
    // We free nothing here: the queue frees its remaining nodes itself,
    // starting from `retired_` (see queue destructors).
  }

  // Announce-and-validate (Algorithm 7, protect): loop until the announced
  // snapshot is still the current value of *src, so that the node cannot
  // have been retired-and-freed between read and announcement.
  Node* protect(const std::atomic<Node*>& src, int tid) {
    auto& slot = protectors_[static_cast<std::size_t>(tid)].value;
    Node* snapshot = src.load(std::memory_order_acquire);
    for (;;) {
      slot.store(snapshot, std::memory_order_seq_cst);
      // The seq_cst store/load pair is the fence Algorithm 7's comment
      // requires between the protector write and the validating re-read.
      Node* current = src.load(std::memory_order_seq_cst);
      if (current == snapshot) return snapshot;
      snapshot = current;
    }
  }

  void unprotect(int tid) {
    protectors_[static_cast<std::size_t>(tid)].value.store(
        nullptr, std::memory_order_release);
  }

  // Free retired nodes not protected by any thread (Algorithm 7,
  // free_nodes). `head` is the queue's current head (never freed here).
  // Does nothing while head's index is less than max_threads past the
  // retired prefix's (see the header comment).
  void free_nodes(Node* head) {
    const std::uint64_t head_index = head->index;
    if (head_index < retired_index_.load(std::memory_order_relaxed) +
                         max_threads_) {
      return;
    }
    Node* retired = retired_.exchange(nullptr, std::memory_order_acq_rel);
    if (retired == nullptr) return;  // another thread is reclaiming
    const std::uint64_t limit = min_protected_index();
    while (retired != head && retired->index < limit) {
      Node* next = retired->next.load(std::memory_order_relaxed);
      deleter_(retired);
      retired = next;
    }
    retired_index_.store(retired->index, std::memory_order_relaxed);
    retired_.store(retired, std::memory_order_release);
  }

  // Frees every node from the retired pointer through the list end. Only
  // valid during single-threaded teardown.
  void drain_all() {
    Node* n = retired_.exchange(nullptr, std::memory_order_acq_rel);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      deleter_(n);
      n = next;
    }
  }

  std::size_t max_threads() const noexcept { return max_threads_; }

 private:
  std::uint64_t min_protected_index() const {
    std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < max_threads_; ++i) {
      Node* p = protectors_[i].value.load(std::memory_order_acquire);
      if (p == nullptr) continue;
      const std::uint64_t index = p->index;
      if (index < min) min = index;
    }
    return min;
  }

  const std::size_t max_threads_;
  std::unique_ptr<Padded<std::atomic<Node*>>[]> protectors_;
  alignas(kCacheLineSize) std::atomic<Node*> retired_;
  // The retired prefix's index, readable without owning `retired_`: the
  // gate in free_nodes dereferences no node it does not own. Stale while a
  // pass runs, which only lets a caller through to the exchange.
  std::atomic<std::uint64_t> retired_index_;
  [[no_unique_address]] Deleter deleter_;
};

}  // namespace sbq
