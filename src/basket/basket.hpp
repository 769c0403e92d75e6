// The basket abstract data type (§5.2.1 of the paper).
//
// A basket is a linearizable multiset with three operations:
//
//   insert(x, id)  -> bool   may fail non-deterministically; on success x
//                            becomes extractable exactly once
//   extract(id)    -> T*     removes and returns some element, or nullptr
//   empty()        -> bool   false if non-empty; false negatives allowed
//
// plus `reset()`, which sbq::Queue uses when an enqueuer recycles a node
// whose append lost the race (§5.2.2: node reuse undoes the single
// insertion in O(1) amortized time).
//
// The interface alone does not make the queue linearizable; an
// implementation must additionally guarantee (§5.3.2): once the basket is
// *indicated empty* (an extract returned nullptr or empty() returned true),
// any basket_extract invoked later must fail. The one implementation,
// SbqBasket (basket/sbq_basket.hpp), satisfies it via its counter/empty-bit
// protocol.
#pragma once

#include <concepts>
#include <cstddef>

namespace sbq {

template <typename B, typename T>
concept Basket = requires(B& b, const B& cb, T* x, int id) {
  { b.insert(x, id) } -> std::same_as<bool>;
  { b.extract(id) } -> std::same_as<T*>;
  { cb.empty() } -> std::same_as<bool>;
  { b.reset(id) };
};

}  // namespace sbq
