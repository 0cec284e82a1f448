// SQ-DB-SKY (Algorithm 1, Section 3): skyline discovery through a
// single-ended-range interface.
//
// Iterative divide and conquer over a query tree: the root is SELECT *;
// whenever a query returns a full page of k tuples, one child per ranking
// attribute Ai appends the predicate Ai < T0[Ai]. Every skyline tuple
// matches at least one child of every overflowing node it matches (it
// must beat T0 somewhere or be dominated), so a breadth-first drain of
// the tree discovers the complete skyline (Theorem 2). Worst-case cost
// O(m * |S|^{m+1}); expected cost under a random ranking is bounded by
// (e + e|S|/m)^m (Section 3.2).

#ifndef HDSKY_CORE_SQ_DB_SKY_H_
#define HDSKY_CORE_SQ_DB_SKY_H_

#include <memory>

#include "core/discovery.h"

namespace hdsky {
namespace core {

struct SqDbSkyOptions {
  DiscoveryOptions common;
  /// When true (default), child queries whose new predicate cannot match
  /// any domain value (e.g. Ai < domain_min) are pruned locally instead
  /// of issued: a real search form cannot even express a bound below the
  /// attribute's domain. Setting false issues them anyway, which is what
  /// the Section 3.2 cost model charges for (E(C_1) = m + 1 counts all m
  /// empty branches); the ablation bench quantifies the difference.
  bool skip_impossible_children = true;
  /// Skips queue entries identical to an already-processed query (safe:
  /// the first instance's subtree covers the region). Off by default to
  /// keep costs faithful to the paper's tree model.
  bool skip_duplicate_nodes = false;
};

/// Starts SQ-DB-SKY against `iface` without issuing a query: validates
/// the interface and options and restores options.common's resume
/// blobs. Drive it with Continue(); see ResumableDiscovery.
common::Result<std::unique_ptr<ResumableDiscovery>> MakeSqDbSky(
    interface::HiddenDatabase* iface, const SqDbSkyOptions& options = {});

/// Runs SQ-DB-SKY against `iface` to the end (MakeSqDbSky + RunToEnd).
/// Every ranking attribute must support an upper-bound predicate (SQ or
/// RQ). A budget exhaustion (either the interface's or
/// options.common.max_queries) yields complete = false with the partial
/// skyline discovered so far — the anytime property.
common::Result<DiscoveryResult> SqDbSky(interface::HiddenDatabase* iface,
                                        const SqDbSkyOptions& options = {});

}  // namespace core
}  // namespace hdsky

#endif  // HDSKY_CORE_SQ_DB_SKY_H_
