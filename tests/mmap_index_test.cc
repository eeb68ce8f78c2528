// The arena (mmap) format, end to end: bitwise round-trips vs the
// in-memory builds, full-validation checksums, saving over a file that
// is mapped, and a differential proving that answers computed on
// mmap-loaded indexes are byte-identical to the in-memory ones at 1 and
// 8 threads. The header and section-table checks beyond the corruption
// family of corrupt_index_test.cc are here as well.

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/batch_engine.h"
#include "graph/graph.h"
#include "index_kinds.h"
#include "test_util.h"

namespace fannr {
namespace {

using testing::AllIndexKinds;
using testing::IndexKind;
using testing::kHeaderBytes;
using testing::ReadFileBytes;
using testing::TempPath;
using testing::WriteFileBytes;

// Bitwise equality for Weights: the differential contract is "the same
// bits", not "approximately equal".
void ExpectSameBits(Weight a, Weight b, const std::string& label) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b)) << label;
}

std::vector<std::pair<VertexId, VertexId>> SamplePairs(const Graph& graph,
                                                       size_t count,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(
        static_cast<VertexId>(rng.NextBounded(graph.NumVertices())),
        static_cast<VertexId>(rng.NextBounded(graph.NumVertices())));
  }
  return pairs;
}

class MmapIndexTest : public ::testing::Test {
 protected:
  Graph graph_ = testing::MakeRandomNetwork(300, 91);
};

// --- Graph --------------------------------------------------------------

TEST_F(MmapIndexTest, GraphV3RoundTripIsBitwiseIdentical) {
  const Graph grid = testing::MakeSmallGrid(8, 9);
  for (const Graph* original : {&std::as_const(graph_), &grid}) {
    const std::string path = TempPath("graph.v3");
    ASSERT_TRUE(original->SaveV3(path));
    auto mapped = Graph::LoadMmap(path);
    ASSERT_TRUE(mapped.has_value());
    EXPECT_TRUE(mapped->MemoryMapped());
    EXPECT_FALSE(original->MemoryMapped());

    EXPECT_EQ(mapped->Fingerprint(), original->Fingerprint());
    ASSERT_EQ(mapped->NumVertices(), original->NumVertices());
    ASSERT_EQ(mapped->NumArcs(), original->NumArcs());
    for (VertexId u = 0; u < original->NumVertices(); ++u) {
      const auto a = original->Neighbors(u);
      const auto b = mapped->Neighbors(u);
      ASSERT_EQ(a.size(), b.size()) << "vertex " << u;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].to, b[i].to);
        ExpectSameBits(a[i].weight, b[i].weight, "arc weight");
      }
    }
    ASSERT_TRUE(mapped->HasCoordinates());
    for (VertexId u = 0; u < original->NumVertices(); ++u) {
      ExpectSameBits(mapped->Coord(u).x, original->Coord(u).x, "coord x");
      ExpectSameBits(mapped->Coord(u).y, original->Coord(u).y, "coord y");
    }
  }
}

TEST_F(MmapIndexTest, SaveV3IsByteDeterministic) {
  // Arc structs carry 4 padding bytes; SaveV3 zeroes them so two saves
  // of the same graph produce identical files (required for cache
  // dedup/rsync and for this suite's flip tests to be meaningful).
  const std::string path_a = TempPath("det_a.v3");
  const std::string path_b = TempPath("det_b.v3");
  ASSERT_TRUE(graph_.SaveV3(path_a));
  ASSERT_TRUE(graph_.SaveV3(path_b));
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));
}

TEST_F(MmapIndexTest, MappedGraphSurvivesWriteAfterLoad) {
  // The mapping is MAP_PRIVATE copy-on-write: in-place weight updates on
  // a mapped graph must work and must not touch the file.
  const std::string path = TempPath("cow.v3");
  ASSERT_TRUE(graph_.SaveV3(path));
  const std::string before = ReadFileBytes(path);
  auto mapped = Graph::LoadMmap(path);
  ASSERT_TRUE(mapped.has_value());
  const VertexId u = 0;
  const VertexId v = mapped->Neighbors(0).front().to;
  const Weight w = mapped->Neighbors(0).front().weight;
  EdgeWeightUpdate update{u, v, w * 2.0};
  const auto stats = mapped->ApplyWeightUpdates({&update, 1});
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(mapped->EdgeWeight(u, v).value(), w * 2.0);
  EXPECT_EQ(ReadFileBytes(path), before) << "file mutated through the map";
}

TEST_F(MmapIndexTest, SavingOverAMappedFileLeavesTheLiveGraphUntouched) {
  // Rewriting a file in place would change every page of a live private
  // mapping of it that has not been touched yet, and reads past the end
  // of a shorter new file would raise SIGBUS. SaveV3 replaces the file by
  // rename instead, so a loaded graph keeps reading its own bytes.
  const std::string path = TempPath("graph.v3");
  ASSERT_TRUE(graph_.SaveV3(path));
  auto mapped = Graph::LoadMmap(path);
  ASSERT_TRUE(mapped.has_value());

  // Arcs of the live graph that no longer match the graph it was saved
  // from.
  const auto changed_arcs = [&] {
    size_t changed = 0;
    for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
      const auto a = graph_.Neighbors(u);
      const auto b = mapped->Neighbors(u);
      if (a.size() != b.size()) {
        changed += a.size();
        continue;
      }
      for (size_t i = 0; i < a.size(); ++i) {
        changed += a[i].to != b[i].to ||
                   std::bit_cast<uint64_t>(a[i].weight) !=
                       std::bit_cast<uint64_t>(b[i].weight);
      }
    }
    return changed;
  };

  std::vector<std::vector<Arc>> doubled(graph_.NumVertices());
  for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
    for (const Arc& a : graph_.Neighbors(u)) {
      doubled[u].push_back({a.to, a.weight * 2.0});
    }
  }
  const Graph heavier(std::move(doubled),
                      {graph_.Coords().begin(), graph_.Coords().end()});
  ASSERT_TRUE(heavier.SaveV3(path));
  EXPECT_EQ(changed_arcs(), 0u) << "a same-size rewrite reached the live map";

  const Graph smaller = testing::MakeRandomNetwork(50, 7);
  ASSERT_TRUE(smaller.SaveV3(path));
  EXPECT_EQ(changed_arcs(), 0u) << "a shorter rewrite reached the live map";
  EXPECT_EQ(mapped->Fingerprint(), graph_.Fingerprint());

  auto reloaded = Graph::LoadMmap(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->Fingerprint(), smaller.Fingerprint());
}

TEST_F(MmapIndexTest, FailedSaveLeavesNoTemporaryFile) {
  // The target is a directory, so the final rename fails after the
  // temporary file was written in full; it must be removed again.
  const std::filesystem::path target = TempPath("dir");
  std::filesystem::create_directories(target);
  EXPECT_FALSE(graph_.SaveV3(target.string()));
  EXPECT_TRUE(std::filesystem::is_directory(target));
  const std::string prefix = target.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(prefix, 0), 0u)
        << "left behind: " << entry.path();
  }
  std::filesystem::remove(target);
}

// --- Index kinds (tests/index_kinds.h) -----------------------------------

TEST_F(MmapIndexTest, IndexV3DistancesAreBitwiseIdenticalToInMemory) {
  const auto pairs = SamplePairs(graph_, 64, 0xA11Au);
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name + ".v3");
    ASSERT_TRUE(kind.save(graph_, path)) << kind.name;
    const testing::DistanceOracle built = kind.build(graph_);
    const testing::DistanceOracle mapped =
        kind.open(graph_, path, ArenaValidation::kFull);
    ASSERT_TRUE(mapped) << kind.name;
    for (const auto& [u, v] : pairs) {
      ExpectSameBits(built(u, v), mapped(u, v), kind.name + " distance");
    }
  }
}

TEST_F(MmapIndexTest, FullValidationCatchesEveryPayloadFlip) {
  // The payload checksum covers [64, file_bytes): under kFull, ANY
  // flipped payload byte must be caught. (kHeaderOnly intentionally
  // skips this — that trade is the point of the format — but then the
  // structural validators still keep us memory-safe; see
  // CorruptIndexTest.SingleByteCorruptionNeverCrashes.)
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name + ".v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    const std::string flip_path = TempPath(kind.name + "_flip.v3");
    for (size_t pos = kHeaderBytes; pos < clean.size(); pos += 1 + pos / 7) {
      std::string bytes = clean;
      bytes[pos] ^= 0x40;
      WriteFileBytes(flip_path, bytes);
      EXPECT_FALSE(kind.loads(graph_, flip_path, ArenaValidation::kFull))
          << kind.name << " flip at " << pos << " survived kFull";
    }
  }
}

// --- Header and table checks --------------------------------------------
//
// corrupt_index_test.cc's family rejects a bad magic, version, fingerprint
// and truncation at the default kHeaderOnly open. These cases cover the
// rest of the header, the kFull open and random damage.

// Copies `value` over the bytes at `offset` of `bytes`.
template <typename T>
void Poke(std::string& bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

template <typename T>
T Peek(const std::string& bytes, size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

TEST_F(MmapIndexTest, TruncatedMapsAreRejected) {
  // Under kFull too: the checksum pass must never run over a short map.
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name + ".v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    ASSERT_GT(clean.size(), kHeaderBytes);
    const std::string cut_path = TempPath(kind.name + "_cut.v3");
    for (size_t keep :
         {size_t{0}, size_t{4}, kHeaderBytes - 1, kHeaderBytes + 8,
          clean.size() / 2, clean.size() - 1}) {
      WriteFileBytes(cut_path, clean.substr(0, keep));
      EXPECT_FALSE(kind.loads(graph_, cut_path, ArenaValidation::kFull))
          << kind.name << " truncated to " << keep << " bytes";
    }
  }
}

TEST_F(MmapIndexTest, BadHeadersAreRejected) {
  // Header words past the fingerprint (layout in graph/index_io.h):
  // section_count at 36, flags at 40, payload_checksum at 48, file_bytes
  // at 56, then the section table at 64.
  struct Case {
    std::string what;
    std::function<void(std::string&)> mutate;
    ArenaValidation validation;
  };
  const std::vector<Case> cases = {
      {"section count past the limit",
       [](std::string& b) { Poke<uint32_t>(b, 36, 0xFFFFFFFFu); },
       ArenaValidation::kHeaderOnly},
      {"section table past the end of the file",
       [](std::string& b) {
         Poke<uint32_t>(b, 36, static_cast<uint32_t>(b.size() / 16));
       },
       ArenaValidation::kHeaderOnly},
      {"file size word off by one",
       [](std::string& b) { Poke<uint64_t>(b, 56, b.size() + 1); },
       ArenaValidation::kHeaderOnly},
      {"misaligned first section",
       [](std::string& b) {
         Poke<uint64_t>(b, kHeaderBytes, Peek<uint64_t>(b, kHeaderBytes) + 8);
       },
       ArenaValidation::kHeaderOnly},
      {"first section overlapping the table",
       [](std::string& b) { Poke<uint64_t>(b, kHeaderBytes, 0); },
       ArenaValidation::kHeaderOnly},
      {"first section running past the end",
       [](std::string& b) { Poke<uint64_t>(b, kHeaderBytes + 8, b.size()); },
       ArenaValidation::kHeaderOnly},
      {"stored payload checksum flipped",
       [](std::string& b) { b[48] ^= 0x01; }, ArenaValidation::kFull},
      {"checksum flag cleared",
       [](std::string& b) { Poke<uint64_t>(b, 40, 0); },
       ArenaValidation::kFull},
  };
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name + ".v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    const std::string bad_path = TempPath(kind.name + "_bad.v3");
    for (const Case& c : cases) {
      std::string bytes = clean;
      c.mutate(bytes);
      WriteFileBytes(bad_path, bytes);
      EXPECT_FALSE(kind.loads(graph_, bad_path, c.validation))
          << kind.name << ": " << c.what;
    }
  }
}

TEST_F(MmapIndexTest, FingerprintMismatchIsRejectedInOHeaderTime) {
  // The fingerprint is three header words (vertices at 12, edges at 20,
  // weight checksum at 28); damage to any one of them must be caught by
  // the open that reads only the 64-byte header, never the payload.
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name + ".v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    const std::string flip_path = TempPath(kind.name + "_fpflip.v3");
    for (const size_t word : {size_t{0}, size_t{1}, size_t{2}}) {
      std::string bytes = clean;
      bytes[testing::kFingerprintOffset + 8 * word] ^= 0x01;
      WriteFileBytes(flip_path, bytes);
      EXPECT_FALSE(kind.loads(graph_, flip_path, ArenaValidation::kHeaderOnly))
          << kind.name << " fingerprint word " << word;
    }
  }
}

TEST_F(MmapIndexTest, SingleByteCorruptionNeverCrashesUnderHeaderOnly) {
  // Random positions and random masks, where corrupt_index_test.cc sweeps
  // one fixed mask at fixed positions. A damaged file may be rejected or
  // may load; a survivor is queried so the ASan job sees any read out of
  // bounds.
  Rng rng(0x5EEDu);
  const auto pairs = SamplePairs(graph_, 4, 0xC0DEu);
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name + ".v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    const std::string flip_path = TempPath(kind.name + "_sflip.v3");
    for (int trial = 0; trial < 300; ++trial) {
      std::string bytes = clean;
      bytes[rng.NextIndex(bytes.size())] ^=
          static_cast<char>(1 + rng.NextBounded(255));
      WriteFileBytes(flip_path, bytes);
      const testing::DistanceOracle survivor =
          kind.open(graph_, flip_path, ArenaValidation::kHeaderOnly);
      if (!survivor) continue;
      for (const auto& [u, v] : pairs) (void)survivor(u, v);
    }
  }
}

// --- Differential: mmap-loaded vs in-memory through the batch engine ----

TEST_F(MmapIndexTest, BatchAnswersOnMappedIndexesAreByteIdentical) {
  GTree::Options gtree_options;
  gtree_options.leaf_capacity = 16;
  GTree gtree = GTree::Build(graph_, gtree_options);
  auto labels = HubLabels::Build(graph_);
  ASSERT_TRUE(labels.has_value());
  ContractionHierarchy ch = ContractionHierarchy::Build(graph_);

  const std::string gtree_path = TempPath("diff_gtree.v3");
  const std::string labels_path = TempPath("diff_phl.v3");
  const std::string ch_path = TempPath("diff_ch.v3");
  ASSERT_TRUE(gtree.SaveV3(gtree_path));
  ASSERT_TRUE(labels->SaveV3(labels_path));
  ASSERT_TRUE(ch.SaveV3(ch_path));
  auto mapped_gtree = GTree::LoadMmap(graph_, gtree_path);
  auto mapped_labels = HubLabels::LoadMmap(graph_, labels_path);
  auto mapped_ch = ContractionHierarchy::LoadMmap(graph_, ch_path);
  ASSERT_TRUE(mapped_gtree.has_value());
  ASSERT_TRUE(mapped_labels.has_value());
  ASSERT_TRUE(mapped_ch.has_value());

  Rng rng(0xD1FFu);
  const IndexedVertexSet p(graph_.NumVertices(),
                           testing::SampleVertices(graph_, 24, rng));
  const IndexedVertexSet q(graph_.NumVertices(),
                           testing::SampleVertices(graph_, 8, rng));
  std::vector<FannrQuery> jobs;
  for (int i = 0; i < 12; ++i) {
    FannrQuery job;
    job.query = FannQuery{&graph_, &p, &q, i % 2 == 0 ? 0.5 : 0.75,
                          i % 3 == 0 ? Aggregate::kMax : Aggregate::kSum};
    job.algorithm = FannAlgorithm::kGd;
    jobs.push_back(job);
  }

  GphiResources in_memory;
  in_memory.graph = &graph_;
  in_memory.gtree = &gtree;
  in_memory.labels = &*labels;
  in_memory.ch = &ch;
  GphiResources mapped = in_memory;
  mapped.gtree = &*mapped_gtree;
  mapped.labels = &*mapped_labels;
  mapped.ch = &*mapped_ch;

  for (const GphiKind kind :
       {GphiKind::kGTree, GphiKind::kPhl, GphiKind::kCh}) {
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      BatchOptions options;
      options.num_threads = threads;
      options.gphi_kind = kind;
      BatchQueryEngine mem_engine(in_memory, options);
      BatchQueryEngine map_engine(mapped, options);
      const auto mem_results = mem_engine.Run(jobs);
      const auto map_results = map_engine.Run(jobs);
      ASSERT_EQ(mem_results.size(), map_results.size());
      for (size_t i = 0; i < mem_results.size(); ++i) {
        const std::string label = "kind " + std::string(GphiKindName(kind)) +
                                  " threads " + std::to_string(threads) +
                                  " job " + std::to_string(i);
        EXPECT_EQ(mem_results[i].best, map_results[i].best) << label;
        ExpectSameBits(mem_results[i].distance, map_results[i].distance,
                       label);
        EXPECT_EQ(mem_results[i].subset, map_results[i].subset) << label;
      }
    }
  }
}

// --- Parallel build determinism -----------------------------------------

TEST_F(MmapIndexTest, ParallelIndexBuildsAreBitwiseIdenticalToSequential) {
  // GTree and HubLabels accept a ThreadPool; the parallel build must be
  // indistinguishable from the sequential one. Compare through SaveV3
  // bytes — the strictest possible equality.
  ThreadPool pool(4);

  GTree::Options gtree_options;
  gtree_options.leaf_capacity = 16;
  const std::string seq_g = TempPath("seq_gtree.v3");
  const std::string par_g = TempPath("par_gtree.v3");
  ASSERT_TRUE(GTree::Build(graph_, gtree_options).SaveV3(seq_g));
  ASSERT_TRUE(GTree::Build(graph_, gtree_options, &pool).SaveV3(par_g));
  EXPECT_EQ(ReadFileBytes(seq_g), ReadFileBytes(par_g))
      << "parallel G-tree build diverged from sequential";

  const std::string seq_l = TempPath("seq_phl.v3");
  const std::string par_l = TempPath("par_phl.v3");
  auto seq_labels = HubLabels::Build(graph_);
  auto par_labels = HubLabels::Build(graph_, HubLabels::Options{}, &pool);
  ASSERT_TRUE(seq_labels.has_value());
  ASSERT_TRUE(par_labels.has_value());
  ASSERT_TRUE(seq_labels->SaveV3(seq_l));
  ASSERT_TRUE(par_labels->SaveV3(par_l));
  EXPECT_EQ(ReadFileBytes(seq_l), ReadFileBytes(par_l))
      << "parallel hub-label build diverged from sequential";
}

}  // namespace
}  // namespace fannr
