// SBQ — the scalable baskets queue (§5 of the paper), templated over the
// basket implementation and the CAS policy used by try_append:
//
//   Queue<T, SbqBasket<T>, HtmCas>      = SBQ-HTM   (the paper's SBQ)
//   Queue<T, SbqBasket<T>, DelayedCas>  = SBQ-CAS   (§6.1 ablation)
//
// BQ-Original is its own class (queues/baskets_queue.hpp), not an
// instantiation of this template.
//
// The queue is a singly linked list of nodes, each holding a basket.
// enqueue (Algorithm 3): insert into a fresh node's basket, try_append the
// node after the tail; on FAILURE insert into the *winner's* basket instead;
// on BAD_TAIL (or failed basket insert) re-find the tail and retry.
// dequeue (Algorithm 5): walk from head to the first non-empty basket and
// extract. advance_node (Algorithm 6) monotonically advances head/tail by
// node index. Reclamation is the index-based scheme of Algorithm 7.
//
// Nodes are recycled, not freed: where Algorithm 7 would free a node, it goes
// back to a pool of the enqueuer that allocated it (the paper runs on the
// Memkind scalable allocator so that malloc never becomes the bottleneck).
// Only ~Queue deletes nodes.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // no-op macros unless built with ASan
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "basket/basket.hpp"
#include "common/cacheline.hpp"
#include "htm/cas_policy.hpp"
#include "reclaim/retired_list.hpp"

namespace sbq {

enum class AppendResult { kSuccess, kFailure, kBadTail };

template <typename T, typename BasketT, typename CasPolicyT>
class Queue {
 public:
  struct Node {
    Node(std::size_t basket_capacity, std::size_t live_inserters, int owner_id)
        : basket(basket_capacity, live_inserters), owner(owner_id) {}

    BasketT basket;
    std::atomic<Node*> next{nullptr};
    // Written only while the node is private. Atomic because Algorithm 7's
    // reclaimer reads the index of whatever a protector slot holds, which
    // may be a node announced just before its validation failed, already
    // pooled and being reused; any value it reads there is harmless.
    std::atomic<std::uint64_t> index{0};
    const int owner;            // enqueuer whose pool the node returns to
    Node* pool_next = nullptr;  // freelist link while pooled
  };

  struct Config {
    std::size_t max_enqueuers;      // basket capacity B
    std::size_t max_dequeuers;
    // Extract scan bound: number of enqueuers actually running. The paper's
    // experiments fix B = 44 but determine emptiness from the live count.
    std::size_t live_enqueuers = 0;  // 0 => max_enqueuers
    CasPolicyT cas{};
  };

  explicit Queue(Config cfg)
      : cfg_(cfg),
        live_(cfg.live_enqueuers == 0 ? cfg.max_enqueuers : cfg.live_enqueuers),
        pools_(std::make_unique<Pool[]>(cfg.max_enqueuers)),
        sentinel_(new Node(cfg.max_enqueuers, live_, /*owner_id=*/0)),
        reclaimer_(sentinel_, cfg.max_enqueuers + cfg.max_dequeuers,
                   NodeRecycler{this}) {
    head_.store(sentinel_, std::memory_order_relaxed);
    tail_.store(sentinel_, std::memory_order_relaxed);
  }

  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  ~Queue() {
    // Single-threaded teardown: recycle the whole list (retired prefix plus
    // the live portion — they form one chain starting at `retired`), then
    // delete every pooled node.
    reclaimer_.drain_all();
    for (std::size_t i = 0; i < cfg_.max_enqueuers; ++i) {
      Pool& pool = pools_[i];
      delete pool.failed;
      for (Node* n : {pool.local, pool.remote.load(std::memory_order_relaxed)}) {
        while (n != nullptr) {
          Node* next = n->pool_next;
          ASAN_UNPOISON_MEMORY_REGION(n, sizeof(Node));
          delete n;
          n = next;
        }
      }
    }
  }

  // Algorithm 3. `id` is the enqueuer id in [0, max_enqueuers).
  void enqueue(T* element, int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < cfg_.max_enqueuers);
    // Prepare the node before protecting the tail: a thread stalled while
    // protecting pins every node appended meanwhile, and an allocation can
    // stall for a page fault.
    Node* new_node = take_reusable_or_allocate(id);
    bool inserted = new_node->basket.insert(element, id);
    assert(inserted);
    (void)inserted;
    Node* t = reclaimer_.protect(tail_, enq_tid(id));
    for (;;) {
      new_node->index.store(t->index.load(std::memory_order_relaxed) + 1,
                            std::memory_order_relaxed);
      const AppendResult status = try_append(t, new_node);
      if (status == AppendResult::kSuccess) {
        advance_node(tail_, new_node);
        new_node = nullptr;  // consumed by the queue
        break;
      }
      if (status == AppendResult::kFailure) {
        // Another node was appended concurrently; join its basket.
        t = t->next.load(std::memory_order_acquire);
        if (t->basket.insert(element, id)) {
          // Keep new_node for reuse by this thread's next enqueue; undo its
          // basket insertion (O(1), §5.2.2).
          new_node->basket.reset(id);
          pools_[static_cast<std::size_t>(id)].failed = new_node;
          break;
        }
      }
      // BAD_TAIL or failed basket insert: find the real tail and retry.
      while (Node* next = t->next.load(std::memory_order_acquire)) t = next;
      advance_node(tail_, t);
    }
    reclaimer_.unprotect(enq_tid(id));
  }

  // Algorithm 5. `id` is the dequeuer id in [0, max_dequeuers).
  T* dequeue(int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < cfg_.max_dequeuers);
    Node* h = reclaimer_.protect(head_, deq_tid(id));
    T* element = nullptr;
    for (;;) {
      while (h->basket.empty()) {
        Node* next = h->next.load(std::memory_order_acquire);
        if (next == nullptr) break;
        h = next;
      }
      element = h->basket.extract(id);
      if (element != nullptr || h->next.load(std::memory_order_acquire) == nullptr) {
        break;
      }
    }
    advance_node(head_, h);
    reclaimer_.free_nodes(head_.load(std::memory_order_acquire));
    reclaimer_.unprotect(deq_tid(id));
    return element;
  }

  // Introspection for tests/benchmarks (not linearizable; quiescent use only).
  std::size_t node_count() const {
    std::size_t n = 0;
    for (Node* p = head_.load(std::memory_order_acquire); p != nullptr;
         p = p->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }
  // Nodes enqueuers have allocated so far (the sentinel is not counted).
  std::size_t nodes_allocated() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < cfg_.max_enqueuers; ++i) n += pools_[i].allocated;
    return n;
  }
  std::uint64_t head_index() const {
    return head_.load(std::memory_order_acquire)->index;
  }
  std::uint64_t tail_index() const {
    return tail_.load(std::memory_order_acquire)->index;
  }

 private:
  // Per-enqueuer node pool. The owner alone uses the first cache line;
  // reclaiming threads push onto `remote`, and the owner takes that whole
  // list with one exchange. Nodes are pushed one at a time and only ever
  // taken all at once, so the push CAS cannot suffer ABA.
  struct alignas(kCacheLineSize) Pool {
    Node* failed = nullptr;  // kept after a FAILURE (§5.2.2), basket reset
    Node* local = nullptr;   // private freelist
    std::size_t allocated = 0;
    alignas(kCacheLineSize) std::atomic<Node*> remote{nullptr};
  };

  // Algorithm 7's deleter: hands each reclaimed node back to its owner.
  struct NodeRecycler {
    Queue* queue;
    void operator()(Node* n) const noexcept { queue->recycle(n); }
  };
  using Reclaimer = RetiredList<Node, NodeRecycler>;

  int enq_tid(int id) const noexcept { return id; }
  int deq_tid(int id) const noexcept {
    return static_cast<int>(cfg_.max_enqueuers) + id;
  }

  Node* take_reusable_or_allocate(int id) {
    Pool& pool = pools_[static_cast<std::size_t>(id)];
    if (Node* n = pool.failed) {
      pool.failed = nullptr;
      return n;
    }
    Node* n = pool.local;
    if (n == nullptr) n = pool.remote.exchange(nullptr, std::memory_order_acquire);
    if (n == nullptr) {
      ++pool.allocated;
      return new Node(cfg_.max_enqueuers, live_, id);
    }
    pool.local = n->pool_next;
    // Make the reclaimed node look freshly constructed.
    ASAN_UNPOISON_MEMORY_REGION(n, sizeof(Node));
    for (std::size_t i = 0; i < cfg_.max_enqueuers; ++i) {
      n->basket.reset(static_cast<int>(i));
    }
    n->next.store(nullptr, std::memory_order_relaxed);
    return n;
  }

  // Called exactly where Algorithm 7 would free `n`, so its safety argument
  // is unchanged: no thread can still reach the node. Under ASan the node
  // stays poisoned until it is taken again, so a use after reclamation is
  // still reported; only the freelist link and the index (see Node) stay
  // readable.
  void recycle(Node* n) noexcept {
    std::atomic<Node*>& remote = pools_[static_cast<std::size_t>(n->owner)].remote;
    ASAN_POISON_MEMORY_REGION(n, sizeof(Node));
    ASAN_UNPOISON_MEMORY_REGION(&n->index, sizeof(n->index));
    ASAN_UNPOISON_MEMORY_REGION(&n->pool_next, sizeof(n->pool_next));
    Node* head = remote.load(std::memory_order_relaxed);
    do {
      n->pool_next = head;
    } while (!remote.compare_exchange_weak(head, n, std::memory_order_release,
                                           std::memory_order_relaxed));
  }

  // Algorithm 4 (basic try_append) with the CAS policy plugged in. The
  // BAD_TAIL precheck also prevents an enqueuer from re-inserting into a
  // basket it already used in a previous completed operation (§5.2.2).
  AppendResult try_append(Node* tail, Node* new_node) {
    if (tail->next.load(std::memory_order_acquire) != nullptr) {
      return AppendResult::kBadTail;
    }
    return cfg_.cas(tail->next, static_cast<Node*>(nullptr), new_node)
               ? AppendResult::kSuccess
               : AppendResult::kFailure;
  }

  // Algorithm 6: advance *ptr at least to new_node (by index).
  static void advance_node(std::atomic<Node*>& ptr, Node* new_node) {
    Node* old_node = ptr.load(std::memory_order_acquire);
    for (;;) {
      if (old_node->index.load(std::memory_order_relaxed) >=
          new_node->index.load(std::memory_order_relaxed)) {
        return;
      }
      if (ptr.compare_exchange_weak(old_node, new_node, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
        return;
      }
    }
  }

  Config cfg_;
  std::size_t live_;
  std::unique_ptr<Pool[]> pools_;  // indexed by enqueuer id
  Node* sentinel_;  // initial node; ownership passes to the list/reclaimer
  Reclaimer reclaimer_;
  alignas(kCacheLineSize) std::atomic<Node*> head_{nullptr};
  alignas(kCacheLineSize) std::atomic<Node*> tail_{nullptr};

  friend class QueueTestPeer;
};

}  // namespace sbq
