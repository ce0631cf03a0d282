// SimSpatial — index registry: every index family behind SpatialIndex.

#include <cmath>
#include <functional>

#include "common/bruteforce.h"
#include "core/memgrid.h"
#include "core/spatial_index.h"
#include "crtree/crtree.h"
#include "grid/multigrid.h"
#include "grid/resolution.h"
#include "grid/uniform_grid.h"
#include "lsh/lsh_knn.h"
#include "pam/kdtree.h"
#include "pam/loose_octree.h"
#include "pam/octree.h"
#include "rtree/packed_rtree.h"
#include "rtree/rtree.h"

namespace simspatial::core {

namespace {

// Default cell size for grid-family adapters: analytical model tuned for
// mid-size queries, never below the largest element (centre assignment).
float DefaultCell(std::span<const Element> elements, const AABB& universe) {
  const auto stats = grid::DatasetStats::Compute(elements, universe);
  const float chosen =
      grid::ChooseCellSize(stats, std::max(1e-3, stats.mean_extent * 8.0));
  return std::max(chosen, static_cast<float>(stats.max_extent) * 1.01f);
}

// --- Adapters ---------------------------------------------------------------

class LinearScanAdapter final : public SpatialIndex {
 public:
  std::string_view name() const override { return "linear-scan"; }
  void Build(std::span<const Element> elements, const AABB&) override {
    elements_.assign(elements.begin(), elements.end());
    for (std::size_t i = 0; i < elements_.size(); ++i) {
      pos_[elements_[i].id] = i;
    }
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    *out = ScanRange(elements_, range, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    *out = ScanKnn(elements_, p, k, c);
  }
  bool SupportsUpdates() const override { return true; }
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) override {
    std::size_t n = 0;
    for (const ElementUpdate& u : updates) {
      const auto it = pos_.find(u.id);
      if (it == pos_.end()) continue;
      elements_[it->second].box = u.new_box;
      ++n;
    }
    return n;
  }
  std::size_t size() const override { return elements_.size(); }
  std::size_t MemoryBytes() const override {
    return elements_.size() * sizeof(Element);
  }

 private:
  std::vector<Element> elements_;
  std::unordered_map<ElementId, std::size_t> pos_;
};

class RTreeAdapter final : public SpatialIndex {
 public:
  RTreeAdapter(std::string name, bool bulk, rtree::RTreeOptions options)
      : name_(std::move(name)), bulk_(bulk), tree_(options) {}
  std::string_view name() const override { return name_; }
  void Build(std::span<const Element> elements, const AABB&) override {
    if (bulk_) {
      tree_.BulkLoadStr(elements);
    } else {
      tree_.BulkLoadStr({});
      for (const Element& e : elements) tree_.Insert(e);
    }
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    tree_.RangeQuery(range, out, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    tree_.KnnQuery(p, k, out, c);
  }
  bool SupportsUpdates() const override { return true; }
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) override {
    return tree_.ApplyUpdates(updates);
  }
  std::size_t size() const override { return tree_.size(); }
  std::size_t MemoryBytes() const override { return tree_.Shape().bytes; }
  bool CheckInvariants(std::string* error) const override {
    return tree_.CheckInvariants(error);
  }

 private:
  std::string name_;
  bool bulk_;
  rtree::RTree tree_;
};

// Packed (bulk-load-only) R-tree behind the mutation contract: updates hit
// a mirror of the element set and trigger a rebuild — exactly the paper's
// "rebuild from scratch" competitor (§4.1), now wired into every battery
// that exercises ApplyUpdates.
class PackedRTreeAdapter final : public SpatialIndex {
 public:
  PackedRTreeAdapter(std::string name, rtree::PackOrder order)
      : name_(std::move(name)),
        tree_(rtree::PackedRTreeOptions{
            /*max_entries=*/32, order}) {}
  std::string_view name() const override { return name_; }
  void Build(std::span<const Element> elements, const AABB&) override {
    elements_.assign(elements.begin(), elements.end());
    pos_.clear();
    for (std::size_t i = 0; i < elements_.size(); ++i) {
      pos_[elements_[i].id] = i;
    }
    tree_.Build(elements_);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    tree_.RangeQuery(range, out, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    tree_.KnnQuery(p, k, out, c);
  }
  bool SupportsUpdates() const override { return true; }
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) override {
    std::size_t n = 0;
    for (const ElementUpdate& u : updates) {
      const auto it = pos_.find(u.id);
      if (it == pos_.end()) continue;
      elements_[it->second].box = u.new_box;
      ++n;
    }
    if (n > 0) tree_.Build(elements_);
    return n;
  }
  std::size_t size() const override { return tree_.size(); }
  std::size_t MemoryBytes() const override {
    return tree_.Shape().bytes + elements_.size() * sizeof(Element);
  }
  bool CheckInvariants(std::string* error) const override {
    return tree_.CheckInvariants(error);
  }

 private:
  std::string name_;
  rtree::PackedRTree tree_;
  std::vector<Element> elements_;
  std::unordered_map<ElementId, std::size_t> pos_;
};

class CRTreeAdapter final : public SpatialIndex {
 public:
  std::string_view name() const override { return "cr-tree"; }
  void Build(std::span<const Element> elements, const AABB&) override {
    tree_.Build(elements);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    tree_.RangeQuery(range, out, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    tree_.KnnQuery(p, k, out, c);
  }
  std::size_t size() const override { return tree_.size(); }
  std::size_t MemoryBytes() const override { return tree_.Shape().bytes; }
  bool CheckInvariants(std::string* error) const override {
    return tree_.CheckInvariants(error);
  }

 private:
  crtree::CRTree tree_;
};

class KdTreeAdapter final : public SpatialIndex {
 public:
  std::string_view name() const override { return "kd-tree"; }
  void Build(std::span<const Element> elements, const AABB& u) override {
    tree_.Build(elements, u);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    tree_.RangeQuery(range, out, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    tree_.KnnQuery(p, k, out, c);
  }
  std::size_t size() const override { return tree_.size(); }

 private:
  pam::KdTree tree_;
};

class OctreeAdapter final : public SpatialIndex {
 public:
  std::string_view name() const override { return "octree"; }
  void Build(std::span<const Element> elements, const AABB& u) override {
    tree_.Build(elements, u);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    tree_.RangeQuery(range, out, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    tree_.KnnQuery(p, k, out, c);
  }
  std::size_t size() const override { return tree_.size(); }

 private:
  pam::Octree tree_;
};

class LooseOctreeAdapter final : public SpatialIndex {
 public:
  std::string_view name() const override { return "loose-octree"; }
  void Build(std::span<const Element> elements, const AABB& u) override {
    tree_ = std::make_unique<pam::LooseOctree>(u);
    tree_->Build(elements);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    tree_->RangeQuery(range, out, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    tree_->KnnQuery(p, k, out, c);
  }
  bool SupportsUpdates() const override { return true; }
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) override {
    return tree_ != nullptr ? tree_->ApplyUpdates(updates) : 0;
  }
  std::size_t size() const override {
    return tree_ != nullptr ? tree_->size() : 0;
  }

 private:
  std::unique_ptr<pam::LooseOctree> tree_;
};

class UniformGridAdapter final : public SpatialIndex {
 public:
  std::string_view name() const override { return "uniform-grid"; }
  void Build(std::span<const Element> elements, const AABB& u) override {
    grid_ = std::make_unique<grid::UniformGrid>(u, DefaultCell(elements, u));
    grid_->Build(elements);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    grid_->RangeQuery(range, out, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    grid_->KnnQuery(p, k, out, c);
  }
  bool SupportsUpdates() const override { return true; }
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) override {
    return grid_ != nullptr ? grid_->ApplyUpdates(updates) : 0;
  }
  std::size_t size() const override {
    return grid_ != nullptr ? grid_->size() : 0;
  }
  std::size_t MemoryBytes() const override {
    return grid_ != nullptr ? grid_->Shape().bytes : 0;
  }

 private:
  std::unique_ptr<grid::UniformGrid> grid_;
};

class MultiGridAdapter final : public SpatialIndex {
 public:
  std::string_view name() const override { return "multigrid"; }
  void Build(std::span<const Element> elements, const AABB& u) override {
    grid::MultiGridConfig cfg;
    grid_ = std::make_unique<grid::MultiGrid>(u, cfg);
    grid_->Build(elements);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    grid_->RangeQuery(range, out, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    grid_->KnnQuery(p, k, out, c);
  }
  bool SupportsUpdates() const override { return true; }
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) override {
    return grid_ != nullptr ? grid_->ApplyUpdates(updates) : 0;
  }
  std::size_t size() const override {
    return grid_ != nullptr ? grid_->size() : 0;
  }

 private:
  std::unique_ptr<grid::MultiGrid> grid_;
};

class MemGridAdapter final : public SpatialIndex {
 public:
  /// `slack` layers the slack-CSR layout knobs over the computed cell size:
  /// the default profile lays out a gap-free block (fastest streaming;
  /// migrations relocate their destination region on demand), the "padded"
  /// profile pre-reserves gap slots per cell so migrations land in place —
  /// registering both keeps each structural path covered by the
  /// differential batteries. `layout` fixes the cell-region storage order:
  /// the base profiles take it from IndexOptions, the "memgrid-morton" /
  /// "memgrid-hilbert" profiles pin their curve so every battery that
  /// sweeps the registry exercises every rank-order code path. `shards` /
  /// `compact` split the entry block into rank-range shards with an
  /// incremental compaction budget: the base profiles take both from
  /// IndexOptions, the "memgrid-sharded" profile pins a multi-shard +
  /// incremental configuration so the sharded storage and the two-block
  /// compaction reads run through every registry battery.
  struct SlackProfile {
    std::uint32_t min_slack;
    float slack_fraction;
  };
  MemGridAdapter(std::string name, SlackProfile slack, CellLayout layout,
                 std::uint32_t shards, std::uint32_t compact,
                 const IndexOptions& options)
      : name_(std::move(name)), slack_(slack), layout_(layout),
        shards_count_(shards), compact_(compact), threads_(options.threads) {}
  std::string_view name() const override { return name_; }
  void Build(std::span<const Element> elements, const AABB& u) override {
    MemGridConfig cfg;
    cfg.cell_size = DefaultCell(elements, u);
    cfg.min_slack = slack_.min_slack;
    cfg.slack_fraction = slack_.slack_fraction;
    cfg.threads = threads_;
    cfg.layout = layout_;
    cfg.shards = shards_count_;
    cfg.compact_regions_per_batch = compact_;
    grid_ = std::make_unique<MemGrid>(u, cfg);
    grid_->Build(elements);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    grid_->RangeQuery(range, out, c);
  }
  std::size_t RangeQueryCount(const AABB& range,
                              QueryCounters* c) const override {
    return grid_->RangeQueryCount(range, c);
  }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    grid_->KnnQuery(p, k, out, c);
  }
  void RangeQueryBatch(std::span<const AABB> probes,
                       std::vector<std::vector<ElementId>>* out,
                       QueryCounters* c) const override {
    grid_->RangeQueryBatch(probes, out, c);
  }
  std::size_t RangeQueryCountBatch(std::span<const AABB> probes,
                                   std::vector<std::size_t>* counts,
                                   QueryCounters* c) const override {
    return grid_->RangeQueryCountBatch(probes, counts, c);
  }
  void KnnQueryBatch(std::span<const Vec3> points, std::size_t k,
                     std::vector<std::vector<ElementId>>* out,
                     QueryCounters* c) const override {
    grid_->KnnQueryBatch(points, k, out, c);
  }
  bool SupportsUpdates() const override { return true; }
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) override {
    return grid_ != nullptr ? grid_->ApplyUpdates(updates) : 0;
  }
  std::size_t size() const override {
    return grid_ != nullptr ? grid_->size() : 0;
  }
  std::size_t MemoryBytes() const override {
    return grid_ != nullptr ? grid_->Shape().bytes : 0;
  }
  bool CheckInvariants(std::string* error) const override {
    return grid_ == nullptr || grid_->CheckInvariants(error);
  }

 private:
  std::string name_;
  SlackProfile slack_;
  CellLayout layout_;
  std::uint32_t shards_count_;
  std::uint32_t compact_;
  std::uint32_t threads_;
  std::unique_ptr<MemGrid> grid_;
};

class LshAdapter final : public SpatialIndex {
 public:
  std::string_view name() const override { return "lsh"; }
  void Build(std::span<const Element> elements, const AABB& u) override {
    index_.Build(elements, u);
  }
  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* c) const override {
    // LSH is a pure kNN structure (SupportsRangeQueries() is false).
    out->clear();
    (void)range;
    (void)c;
  }
  bool SupportsRangeQueries() const override { return false; }
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* c) const override {
    index_.KnnQuery(p, k, out, c);
  }
  bool SupportsUpdates() const override { return true; }
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) override {
    return index_.ApplyUpdates(updates);
  }
  bool KnnIsExact() const override { return false; }
  std::size_t size() const override { return index_.size(); }
  std::size_t MemoryBytes() const override { return index_.Shape().bytes; }
  bool CheckInvariants(std::string* error) const override {
    return index_.CheckInvariants(error);
  }

 private:
  lsh::LshKnn index_;
};

struct RegistryEntry {
  const char* name;
  std::function<std::unique_ptr<SpatialIndex>(const IndexOptions&)> make;
};

const std::vector<RegistryEntry>& Registry() {
  static const std::vector<RegistryEntry> kRegistry = {
      {"linear-scan",
       [](const IndexOptions&) {
         return std::make_unique<LinearScanAdapter>();
       }},
      {"rtree",
       [](const IndexOptions&) {
         return std::make_unique<RTreeAdapter>("rtree", /*bulk=*/false,
                                               rtree::RTreeOptions{});
       }},
      {"rtree-str",
       [](const IndexOptions&) {
         return std::make_unique<RTreeAdapter>("rtree-str", /*bulk=*/true,
                                               rtree::RTreeOptions{});
       }},
      {"rstar",
       [](const IndexOptions&) {
         rtree::RTreeOptions o;
         o.forced_reinsert = true;
         return std::make_unique<RTreeAdapter>("rstar", /*bulk=*/false, o);
       }},
      {"rtree-packed-str",
       [](const IndexOptions&) {
         return std::make_unique<PackedRTreeAdapter>("rtree-packed-str",
                                                     rtree::PackOrder::kStr);
       }},
      {"rtree-packed-hilbert",
       [](const IndexOptions&) {
         return std::make_unique<PackedRTreeAdapter>(
             "rtree-packed-hilbert", rtree::PackOrder::kHilbert);
       }},
      {"cr-tree",
       [](const IndexOptions&) { return std::make_unique<CRTreeAdapter>(); }},
      {"kd-tree",
       [](const IndexOptions&) { return std::make_unique<KdTreeAdapter>(); }},
      {"octree",
       [](const IndexOptions&) { return std::make_unique<OctreeAdapter>(); }},
      {"loose-octree",
       [](const IndexOptions&) {
         return std::make_unique<LooseOctreeAdapter>();
       }},
      {"uniform-grid",
       [](const IndexOptions&) {
         return std::make_unique<UniformGridAdapter>();
       }},
      {"multigrid",
       [](const IndexOptions&) {
         return std::make_unique<MultiGridAdapter>();
       }},
      {"memgrid",
       [](const IndexOptions& o) {
         return std::make_unique<MemGridAdapter>(
             "memgrid", MemGridAdapter::SlackProfile{0, 0.0f}, o.layout,
             o.shards, o.compact_regions_per_batch, o);
       }},
      {"memgrid-padded",
       [](const IndexOptions& o) {
         return std::make_unique<MemGridAdapter>(
             "memgrid-padded", MemGridAdapter::SlackProfile{2, 0.25f},
             o.layout, o.shards, o.compact_regions_per_batch, o);
       }},
      {"memgrid-morton",
       [](const IndexOptions& o) {
         return std::make_unique<MemGridAdapter>(
             "memgrid-morton", MemGridAdapter::SlackProfile{0, 0.0f},
             CellLayout::kMorton, o.shards, o.compact_regions_per_batch, o);
       }},
      {"memgrid-hilbert",
       [](const IndexOptions& o) {
         return std::make_unique<MemGridAdapter>(
             "memgrid-hilbert", MemGridAdapter::SlackProfile{0, 0.0f},
             CellLayout::kHilbert, o.shards, o.compact_regions_per_batch,
             o);
       }},
      {"memgrid-sharded",
       [](const IndexOptions& o) {
         // 5 shards (odd, so entry-balanced boundaries land unevenly) with
         // a small incremental budget: mid-pass two-block reads stay live
         // across the differential batteries instead of only in dedicated
         // tests.
         return std::make_unique<MemGridAdapter>(
             "memgrid-sharded", MemGridAdapter::SlackProfile{0, 0.0f},
             o.layout, 5, 48, o);
       }},
      {"lsh",
       [](const IndexOptions&) { return std::make_unique<LshAdapter>(); }},
  };
  return kRegistry;
}

}  // namespace

std::unique_ptr<SpatialIndex> MakeIndex(std::string_view name) {
  return MakeIndex(name, IndexOptions{});
}

std::unique_ptr<SpatialIndex> MakeIndex(std::string_view name,
                                        const IndexOptions& options) {
  for (const RegistryEntry& e : Registry()) {
    if (name == e.name) return e.make(options);
  }
  return nullptr;
}

std::vector<std::string> AllIndexNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const RegistryEntry& e : Registry()) names.emplace_back(e.name);
  return names;
}

}  // namespace simspatial::core
