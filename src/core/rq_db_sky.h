// RQ-DB-SKY (Algorithm 2, Section 4): skyline discovery through a
// two-ended-range interface.
//
// Traverses the same query tree as SQ-DB-SKY in depth-first preorder, but
// exploits the two-ended interface for early termination: before issuing
// node q, if some already-seen tuple matches q, the node instead issues
// R(q) — the mutually exclusive counterpart of q that excludes every
// sibling branch taken before it (Aj >= pivot[Aj] for the earlier branch
// attributes at each ancestor). An empty R(q) proves q's subtree holds no
// undiscovered tuple and prunes it. Worst case O(m * min(|S|^{m+1}, n)).

#ifndef HDSKY_CORE_RQ_DB_SKY_H_
#define HDSKY_CORE_RQ_DB_SKY_H_

#include <memory>

#include "core/discovery.h"

namespace hdsky {
namespace core {

struct RqDbSkyOptions {
  DiscoveryOptions common;
  /// Prune locally-impossible children (see SqDbSkyOptions).
  bool skip_impossible_children = true;
  /// Disables the seen-match check so every node issues its plain SQ
  /// query and children always pivot on the answer — this degenerates to
  /// SQ-DB-SKY issued over the RQ interface. Only for the ablation bench
  /// measuring the value of early termination.
  bool disable_early_termination = false;
  /// Ranking attributes to branch on (empty = all). MQ-DB-SKY's first
  /// phase restricts branching to the range-predicate attributes and
  /// leaves point attributes unconstrained ("Ai = *", Section 6.1).
  /// ORDER MATTERS under mixed one-/two-ended support: R(q) excludes
  /// earlier branches with ">=" only where supported, so putting
  /// two-ended (RQ) attributes first maximizes the exclusion power.
  std::vector<int> branch_attrs;
  /// Skips a node whose SQ-form query is identical to one already
  /// processed (different tree paths can assemble the same conjunctive
  /// region, especially over small discrete domains). Safe: the first
  /// instance's subtree already covers the region's skyline. Off by
  /// default to keep measured costs faithful to the paper's tree model;
  /// MQ-DB-SKY enables it for the live-site experiments.
  bool skip_duplicate_nodes = false;
  /// When false, attributes without two-ended support are tolerated:
  /// R(q) adds its excluding ">=" predicates only where supported, which
  /// over-covers R(q) but stays correct (the "simple revision of
  /// RQ-DB-SKY" for mixed one-/two-ended databases, Section 6.3). The
  /// default demands full RQ support as in Section 4.
  bool require_two_ended = true;
};

/// Starts RQ-DB-SKY against `iface` without issuing a query: validates
/// the interface and options and restores options.common's resume
/// blobs. Drive it with Continue(); see ResumableDiscovery.
common::Result<std::unique_ptr<ResumableDiscovery>> MakeRqDbSky(
    interface::HiddenDatabase* iface, const RqDbSkyOptions& options = {});

/// Runs RQ-DB-SKY against `iface` to the end (MakeRqDbSky + RunToEnd).
/// Every ranking attribute must support two-ended ranges (RQ). Budget
/// exhaustion yields the anytime partial skyline with complete = false.
common::Result<DiscoveryResult> RqDbSky(interface::HiddenDatabase* iface,
                                        const RqDbSkyOptions& options = {});

}  // namespace core
}  // namespace hdsky

#endif  // HDSKY_CORE_RQ_DB_SKY_H_
