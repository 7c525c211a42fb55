// A sharded deployment in one process for the test suite: slice servers of
// one document partition, each behind a ShardEndpoint and an
// InProcessTransport, and a fault-free ShardCoordinator over them. The
// suites compare its frames with the monolithic server's, use it as the
// reference for fault storms, and hand its transports to
// ShardCoordinator::AdvanceEpoch as a new slice set.

#ifndef EMBELLISH_TESTS_SLICE_RIG_H_
#define EMBELLISH_TESTS_SLICE_RIG_H_

#include <functional>
#include <memory>
#include <vector>

#include "server/embellish_server.h"
#include "server/shard_coordinator.h"
#include "server/shard_transport.h"
#include "testutil.h"

namespace embellish::testutil {

struct SliceRig {
  /// The partition the slices serve, when the rig froze it itself; declared
  /// first so that it outlives the slices.
  std::unique_ptr<index::IndexCatalog> catalog;
  std::vector<std::unique_ptr<server::EmbellishServer>> slices;
  std::vector<std::unique_ptr<server::ShardEndpoint>> endpoints;
  std::vector<std::unique_ptr<server::InProcessTransport>> transports;
  std::unique_ptr<server::ShardCoordinator> coordinator;

  /// \brief One single-replica group per slice, in slice order: the
  ///        argument ShardCoordinator::AdvanceEpoch takes for a new set.
  std::vector<std::vector<server::ShardTransport*>> groups() const {
    std::vector<std::vector<server::ShardTransport*>> out;
    for (const auto& t : transports) out.push_back({t.get()});
    return out;
  }
};

/// \brief Slices 0..n-1, each made by `make_slice` from `base` with
///        shard_slice and shard_slice_count set, behind a coordinator
///        built with `coordinator_options` and `pool`.
inline SliceRig MakeSliceRig(
    size_t n,
    const std::function<std::unique_ptr<server::EmbellishServer>(
        const server::EmbellishServerOptions&)>& make_slice,
    const server::ShardCoordinatorOptions& coordinator_options = {},
    const server::EmbellishServerOptions& base = {},
    ThreadPool* pool = nullptr) {
  SliceRig rig;
  std::vector<server::ShardTransport*> raw;
  for (size_t s = 0; s < n; ++s) {
    server::EmbellishServerOptions options = base;
    options.shard_slice = s;
    options.shard_slice_count = n;
    rig.slices.push_back(make_slice(options));
    rig.endpoints.push_back(
        std::make_unique<server::ShardEndpoint>(rig.slices.back().get(), s));
    rig.transports.push_back(std::make_unique<server::InProcessTransport>(
        rig.endpoints.back().get()));
    raw.push_back(rig.transports.back().get());
  }
  rig.coordinator = std::make_unique<server::ShardCoordinator>(
      std::move(raw), coordinator_options, pool);
  return rig;
}

/// \brief Slices of `catalog`'s partition, which must have n shards.
inline SliceRig MakeSliceRig(index::IndexCatalog* catalog, size_t n) {
  return MakeSliceRig(
      n, [catalog](const server::EmbellishServerOptions& options) {
        return std::make_unique<server::EmbellishServer>(catalog, options);
      });
}

/// \brief Slices of one n-way kDocRange partition of `index`, frozen once
///        (FreezeCatalog) and owned by the rig; the slices and the
///        coordinator share `pool`.
inline SliceRig MakeSliceRig(
    const index::InvertedIndex* index, const core::BucketOrganization* buckets,
    size_t n, const server::ShardCoordinatorOptions& coordinator_options = {},
    const server::EmbellishServerOptions& base = {},
    ThreadPool* pool = nullptr) {
  std::unique_ptr<index::IndexCatalog> catalog =
      FreezeCatalog(index, buckets, n);
  SliceRig rig = MakeSliceRig(
      n,
      [catalog = catalog.get(),
       pool](const server::EmbellishServerOptions& options) {
        return std::make_unique<server::EmbellishServer>(catalog, options,
                                                         pool);
      },
      coordinator_options, base, pool);
  rig.catalog = std::move(catalog);
  return rig;
}

}  // namespace embellish::testutil

#endif  // EMBELLISH_TESTS_SLICE_RIG_H_
