// The seen-tuple memo of RQ-DB-SKY, indexed for Algorithm 2 line 3:
// before issuing node q, "does some tuple seen so far satisfy every
// predicate of q?". A linear scan answers that in time linear in the
// session; this index answers it by box emptiness.
//
// Storage: the tuples' values are one flat array in insertion order
// (stride = the schema width) beside their ids, so the memo is also what
// RQ-DB-SKY's frontier checkpoints serialize.
//
// Index: the logarithmic method over static kd-trees. The newest
// size() % kBuffer tuples form a buffer that is scanned linearly; the
// older ones sit in trees of kBuffer << j tuples, one per set bit j of
// size() / kBuffer, each over a contiguous insertion range. Every tree
// node keeps the min/max box of its tuples over all attributes: a node
// whose box misses q is pruned, and a node whose box lies inside q
// answers true at once. An insert that fills the buffer merges it with
// the smaller trees into one new tree, so each tuple is rebuilt
// O(log n) times.
//
// NULL matches exactly as Interval::Contains says: only an unconstrained
// interval accepts kNullValue (INT64_MAX), so a constrained interval's
// upper bound is clamped to kNullValue - 1 before values are compared.

#ifndef HDSKY_CORE_SEEN_INDEX_H_
#define HDSKY_CORE_SEEN_INDEX_H_

#include <cstdint>
#include <vector>

#include "data/value.h"
#include "interface/query.h"

namespace hdsky {
namespace core {

class SeenIndex {
 public:
  /// `num_attributes`: the width of every stored tuple and query.
  /// `split_attrs`: the attributes the kd-trees split on, i.e. those the
  /// queries' bounds vary over (RQ-DB-SKY's branch attributes; every
  /// seen tuple already satisfies the base filter). Any query is still
  /// answered exactly on every attribute.
  SeenIndex(int num_attributes, std::vector<int> split_attrs);

  /// Appends tuple t (num_attributes values) seen under `id`.
  void Insert(data::TupleId id, const data::Tuple& t);

  /// Replaces the contents with `ids` and their values (flat, insertion
  /// order, ids.size() * num_attributes) and builds the index once: the
  /// same structure the inserts one by one would have left.
  void Assign(std::vector<data::TupleId> ids,
              std::vector<data::Value> values);

  /// True iff some stored tuple satisfies every predicate of q, i.e.
  /// q.MatchesTuple would accept it. q has num_attributes intervals.
  bool AnyMatch(const interface::Query& q) const;

  int64_t size() const { return static_cast<int64_t>(ids_.size()); }
  int num_attributes() const { return width_; }
  data::TupleId id(int64_t i) const {
    return ids_[static_cast<size_t>(i)];
  }
  /// The i-th inserted tuple's num_attributes values.
  const data::Value* values(int64_t i) const {
    return values_.data() + i * width_;
  }

 private:
  /// One constrained attribute of a query, NULL-clamped.
  struct Bound {
    int attr;
    data::Value lo;
    data::Value hi;
  };
  struct Node {
    int32_t begin;  // range into Tree::items
    int32_t end;
    int32_t left = -1;  // -1 for a leaf; right child is right
    int32_t right = -1;
  };
  struct Tree {
    std::vector<int32_t> items;     // tuple indices, kd order
    std::vector<Node> nodes;        // nodes[0] is the root
    std::vector<data::Value> boxes; // per node: min[width], max[width]
  };

  void BuildTree(int level, int64_t begin);
  double SampledSpread(const Tree& tree, int32_t begin, int32_t end,
                       int attr) const;
  /// root_spread is aligned with split_attrs_.
  int32_t BuildNode(Tree* tree, int32_t begin, int32_t end,
                    const std::vector<double>& root_spread);
  bool TreeMatches(const Tree& tree, int32_t node,
                   const std::vector<Bound>& bounds) const;
  bool Matches(int64_t i, const std::vector<Bound>& bounds) const;

  int width_;
  std::vector<int> split_attrs_;
  std::vector<data::TupleId> ids_;
  std::vector<data::Value> values_;
  /// levels_[j] is empty or holds kBuffer << j tuples.
  std::vector<Tree> levels_;
};

}  // namespace core
}  // namespace hdsky

#endif  // HDSKY_CORE_SEEN_INDEX_H_
