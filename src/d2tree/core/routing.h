// Shared D2-Tree client routing (Sec. IV-A2) — the one place entry/owner
// decisions are derived.
//
// Both consumers of the access logic — the discrete-event route planners
// (sim/route.h) and the live cluster's client-side stub (mds/cluster.h) —
// used to re-implement the same walk over the cached local index. They now
// both consume this helper, so the jump-count semantics the paper proves
// (GL hit anywhere, LL hit at the owner, at most one forward on a stale
// index) cannot drift between the simulated and the functional paths.
#pragma once

#include <cstddef>
#include <optional>

#include "d2tree/common/rng.h"
#include "d2tree/core/local_index.h"

namespace d2tree {

/// Where an access to `target` resolves.
struct RouteDecision {
  /// Owning MDS of the covering subtree; nullopt = the target is
  /// GL-resident, so *any* replica serves it.
  std::optional<MdsId> owner;

  bool gl_resident() const noexcept { return !owner.has_value(); }
};

/// The client-side index walk of Sec. IV-A2: first subtree root on the
/// root→target path wins; no hit means every prefix is replicated.
RouteDecision DecideRoute(const NamespaceTree& tree, const LocalIndex& index,
                          NodeId target);

/// Entry server the client contacts first. GL-resident targets go to a
/// uniformly random replica; local-layer targets go straight to the owner
/// unless the cached index entry is stale (probability `stale_prob`), in
/// which case the client lands on a random server and pays one forward.
/// RNG draw order: one NextBounded for GL, NextBool (+ NextBounded when
/// stale) for LL — stable, so seeded experiments reproduce exactly.
MdsId ChooseEntry(const RouteDecision& route, std::size_t mds_count,
                  double stale_prob, Rng& rng);

/// The parties of a rename transaction (DESIGN.md §7), derived from the
/// same cached local index the access logic walks.
struct RenameRoute {
  /// Owner of the covering local-layer subtree; nullopt = GL-resident,
  /// so the rename must update every replica under the GL write lock.
  std::optional<MdsId> owner;
  /// True when `target` itself roots a registered local-layer subtree —
  /// the unit of distribution, and therefore the only granularity at
  /// which a cross-server re-home (RenameTo) is meaningful.
  bool subtree_root = false;

  bool gl_resident() const noexcept { return !owner.has_value(); }
};

/// Resolves the source side of a rename: the record holder(s) of `target`
/// and whether the node is re-homeable (roots a registered subtree).
RenameRoute DecideRenameRoute(const NamespaceTree& tree,
                              const LocalIndex& index, NodeId target);

}  // namespace d2tree
