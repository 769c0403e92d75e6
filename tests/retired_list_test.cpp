// Tests for the index-based retired-list reclamation scheme (Algorithm 7).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "reclaim/retired_list.hpp"

namespace sbq {
namespace {

struct Node {
  std::atomic<Node*> next{nullptr};
  std::uint64_t index = 0;
  static inline std::atomic<int> freed{0};
};

struct CountingDeleter {
  void operator()(Node* n) const {
    Node::freed.fetch_add(1);
    delete n;
  }
};

using List = RetiredList<Node, CountingDeleter>;

// Builds a chain n0 -> n1 -> ... -> n{count-1} with consecutive indices.
std::vector<Node*> make_chain(int count) {
  std::vector<Node*> nodes;
  for (int i = 0; i < count; ++i) {
    Node* n = new Node;
    n->index = static_cast<std::uint64_t>(i);
    if (!nodes.empty()) nodes.back()->next.store(n);
    nodes.push_back(n);
  }
  return nodes;
}

TEST(RetiredList, FreesUpToHeadWhenUnprotected) {
  Node::freed.store(0);
  auto nodes = make_chain(5);
  List list(nodes[0], 2);
  // Head has advanced to nodes[3]: nodes 0..2 are retired and reclaimable.
  list.free_nodes(nodes[3]);
  EXPECT_EQ(Node::freed.load(), 3);
  // Remaining chain is freed at teardown.
  list.drain_all();
  EXPECT_EQ(Node::freed.load(), 5);
}

TEST(RetiredList, ProtectorBlocksReclamation) {
  Node::freed.store(0);
  auto nodes = make_chain(6);
  List list(nodes[0], 2);
  std::atomic<Node*> src{nodes[2]};
  Node* protected_node = list.protect(src, 0);
  EXPECT_EQ(protected_node, nodes[2]);

  list.free_nodes(nodes[5]);
  // Only nodes with index < 2 may be freed.
  EXPECT_EQ(Node::freed.load(), 2);

  list.unprotect(0);
  list.free_nodes(nodes[5]);
  EXPECT_EQ(Node::freed.load(), 5);  // up to (not incl.) the head at idx 5
  list.drain_all();
  EXPECT_EQ(Node::freed.load(), 6);
}

TEST(RetiredList, MinimumOverAllProtectors) {
  Node::freed.store(0);
  auto nodes = make_chain(8);
  List list(nodes[0], 3);
  std::atomic<Node*> s1{nodes[4]}, s2{nodes[1]};
  list.protect(s1, 0);
  list.protect(s2, 2);  // min protected index = 1
  list.free_nodes(nodes[7]);
  EXPECT_EQ(Node::freed.load(), 1);  // only node 0
  list.unprotect(2);
  list.free_nodes(nodes[7]);
  EXPECT_EQ(Node::freed.load(), 4);  // nodes 0..3
  list.unprotect(0);
  list.drain_all();
  EXPECT_EQ(Node::freed.load(), 8);
}

TEST(RetiredList, NeverFreesPastHead) {
  Node::freed.store(0);
  auto nodes = make_chain(4);
  List list(nodes[0], 1);
  list.free_nodes(nodes[0]);  // head is still the sentinel: nothing to free
  EXPECT_EQ(Node::freed.load(), 0);
  list.drain_all();
  EXPECT_EQ(Node::freed.load(), 4);
}

TEST(RetiredList, FreesNothingUntilOneNodePerProtectorSlotIsRetired) {
  // Michael's amortization: a pass reads every protector slot, so it runs
  // only once the head is max_threads nodes past the retired prefix.
  Node::freed.store(0);
  auto nodes = make_chain(12);
  List list(nodes[0], 4);
  std::atomic<Node*> src{nodes[2]};
  list.protect(src, 1);
  for (int head = 0; head < 4; ++head) {
    list.free_nodes(nodes[head]);
    EXPECT_EQ(Node::freed.load(), 0) << "head " << head;
  }
  // Head 4 past the prefix at 0: free up to the protected index 2.
  list.free_nodes(nodes[4]);
  EXPECT_EQ(Node::freed.load(), 2);
  list.unprotect(1);
  // The prefix now starts at 2, so heads 4..5 are under the gate again.
  list.free_nodes(nodes[5]);
  EXPECT_EQ(Node::freed.load(), 2);
  list.free_nodes(nodes[6]);
  EXPECT_EQ(Node::freed.load(), 6);  // nodes 0..5, unprotected
  list.drain_all();
  EXPECT_EQ(Node::freed.load(), 12);
}

TEST(RetiredList, ProtectValidatesSnapshot) {
  // protect() must re-read until the announcement matches the source, so a
  // concurrent swing of the source pointer is never missed.
  auto nodes = make_chain(2);
  List list(nodes[0], 1);
  std::atomic<Node*> src{nodes[0]};
  std::thread flipper([&] {
    for (int i = 0; i < 10000; ++i) {
      src.store(nodes[i % 2], std::memory_order_release);
    }
  });
  for (int i = 0; i < 1000; ++i) {
    Node* p = list.protect(src, 0);
    // The protected value must be one of the two nodes, and at the moment
    // protect returned it matched src at some point in its execution.
    EXPECT_TRUE(p == nodes[0] || p == nodes[1]);
    list.unprotect(0);
  }
  flipper.join();
  list.drain_all();
}

TEST(RetiredList, MutualExclusionViaSwap) {
  // Concurrent free_nodes calls must not double-free. We hammer free_nodes
  // from two threads while the protectors are empty.
  Node::freed.store(0);
  auto nodes = make_chain(100);
  List list(nodes[0], 2);
  Node* head = nodes[99];
  std::thread a([&] {
    for (int i = 0; i < 50; ++i) list.free_nodes(head);
  });
  std::thread b([&] {
    for (int i = 0; i < 50; ++i) list.free_nodes(head);
  });
  a.join();
  b.join();
  EXPECT_EQ(Node::freed.load(), 99);  // everything but the head
  list.drain_all();
  EXPECT_EQ(Node::freed.load(), 100);
}

}  // namespace
}  // namespace sbq
