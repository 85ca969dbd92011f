// PeerRange — the peers of one process, without necessarily storing them.
//
// The DSN'03 model has a known membership Pi = {p_0, ..., p_{n-1}}, so a
// process's peers Pi \ {self} need no list: the i-th peer is i below self
// and i + 1 from self on. Storing that list costs every host 4 bytes per
// peer (4 MB a copy at n = 1000) for nothing. A PeerRange is either that
// implicit set, ascending, or a view of an explicit list in the list's
// order (a sparse topology's adjacency, which Topology keeps ascending).
// Both are random access, and the implicit range visits peers in the order
// the stored list did, so fixed-seed schedules do not depend on which one a
// caller got.
#pragma once

#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>

#include "common/types.h"

namespace mmrfd {

class PeerRange {
 public:
  /// Random access over the range's ids, by value (an implicit range has
  /// no ProcessId objects to refer to).
  class iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = ProcessId;
    using difference_type = std::ptrdiff_t;
    using reference = ProcessId;

    iterator() = default;

    ProcessId operator*() const { return at(list_, self_, i_); }
    ProcessId operator[](difference_type k) const {
      return at(list_, self_, i_ + k);
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++i_;
      return old;
    }
    iterator& operator--() {
      --i_;
      return *this;
    }
    iterator operator--(int) {
      iterator old = *this;
      --i_;
      return old;
    }
    iterator& operator+=(difference_type k) {
      i_ += k;
      return *this;
    }
    iterator& operator-=(difference_type k) {
      i_ -= k;
      return *this;
    }
    friend iterator operator+(iterator it, difference_type k) {
      return it += k;
    }
    friend iterator operator+(difference_type k, iterator it) {
      return it += k;
    }
    friend iterator operator-(iterator it, difference_type k) {
      return it -= k;
    }
    friend difference_type operator-(iterator a, iterator b) {
      return a.i_ - b.i_;
    }
    friend bool operator==(iterator a, iterator b) { return a.i_ == b.i_; }
    friend auto operator<=>(iterator a, iterator b) { return a.i_ <=> b.i_; }

   private:
    friend class PeerRange;
    iterator(const ProcessId* list, std::uint32_t self, difference_type i)
        : list_(list), self_(self), i_(i) {}

    const ProcessId* list_{nullptr};
    std::uint32_t self_{0};
    difference_type i_{0};
  };

  /// No peers.
  PeerRange() = default;

  /// A view of an explicit list, in its order; the list must outlive the
  /// range.
  explicit PeerRange(std::span<const ProcessId> ids)
      : list_(ids.data()), size_(static_cast<std::uint32_t>(ids.size())) {}

  /// Every id in [0, n) except `self`, stored nowhere. Requires self < n.
  static PeerRange all_but(ProcessId self, std::uint32_t n) {
    assert(self.value < n);
    PeerRange r;
    r.size_ = n - 1;
    r.self_ = self.value;
    return r;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] ProcessId operator[](std::size_t i) const {
    assert(i < size_);
    return at(list_, self_, static_cast<std::ptrdiff_t>(i));
  }
  [[nodiscard]] iterator begin() const { return {list_, self_, 0}; }
  [[nodiscard]] iterator end() const { return {list_, self_, size_}; }

 private:
  static ProcessId at(const ProcessId* list, std::uint32_t self,
                      std::ptrdiff_t i) {
    const auto k = static_cast<std::uint32_t>(i);
    if (list != nullptr) return list[k];
    return ProcessId{k < self ? k : k + 1};
  }

  const ProcessId* list_{nullptr};  ///< null: every id but self_
  std::uint32_t size_{0};
  std::uint32_t self_{0};
};

static_assert(std::random_access_iterator<PeerRange::iterator>);

}  // namespace mmrfd
